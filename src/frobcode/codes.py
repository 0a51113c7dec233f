"""Left linear codes over a finite ring, their weight profiles, and the
closed-form identities tying modular two-weight codes to their graphs.

A code is held on its message space R^k: the weight numerator of the
word x G of each message x, and ker G.  Size, b0 and the weight
distribution are message counts over |ker G|.  A subgroup growth keys
each message by the least key of its coset of the zero-weight messages
(its coset graph vertex), at a cost that grows with the number of
generators, at most log2 (|ker G| b0).  Words are formed, in blocks and
never keyed, only where a claim reads them.  A code is modular when
every occurring column point (right unit orbit of a nonzero column) has
multiplicity proportional to its orbit size; the ratio is the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    IdentityCheckError,
    PreconditionError,
    SpecParseError,
    ZeroColumnError,
)
from .homweight import weight_table
from .rings import ELEMENT_DTYPE
from .spans import (
    BLOCK_ENTRIES,
    combine_rows,
    decode_vectors,
    encode_vectors,
    enumeration_size,
    message_words,
    point_ids,
    unit_orbit,
)


class LinearCode:
    """A left linear code, held on its messages: the weight numerator of
    each message's word x G, by key, summed over column blocks, and the
    keys of ker G.  The facts derived from them are computed once."""

    def __init__(self, ring, generator, table):
        self.ring, self.table = ring, table
        self.generator = np.ascontiguousarray(generator, dtype=ELEMENT_DTYPE)
        self.k, self.n = self.generator.shape
        self.denominator = table.denominator
        self.numerators = np.zeros(ring.order ** self.k, dtype=np.int64)
        in_kernel = np.ones(len(self.numerators), dtype=bool)
        for _, words in _column_blocks(self, BLOCK_ENTRIES):
            self.numerators += table.word_numerator(words)
            in_kernel &= ~words.any(axis=1)
        self.kernel = np.flatnonzero(in_kernel)

    @property
    def size(self):
        return len(self.numerators) // len(self.kernel)

    @cached_property
    def weight_distribution(self):
        """Mapping weight -> number of codewords of that weight, by
        ascending weight."""
        vals, counts = np.unique(self.numerators, return_counts=True)
        return {Fraction(int(v), self.denominator): int(c) // len(self.kernel)
                for v, c in zip(vals, counts)}

    @cached_property
    def nonzero_weights(self):
        """Distinct nonzero codeword weights, ascending."""
        return tuple(v for v in self.weight_distribution if v != 0)

    @property
    def b0(self):
        return int((self.numerators == 0).sum()) // len(self.kernel)

    @cached_property
    def points(self):
        """Column points: (point id, representative column, orbit size,
        multiplicity) by ascending point id."""
        pids, sizes = point_ids(self.ring, self.generator.T)
        uniq, first, mult = np.unique(pids, return_index=True,
                                      return_counts=True)
        return tuple((int(pid), self.generator[:, j].copy(), int(sizes[j]),
                      int(m)) for pid, j, m in zip(uniq, first, mult))

    @cached_property
    def index(self):
        """The modular index, or None (see modular_index)."""
        return modular_index(self)

    @cached_property
    def profile(self):
        """The two-weight profile, or None (see two_weight_profile)."""
        return two_weight_profile(self)

    @cached_property
    def coset_keys(self):
        """The least key of each message's coset of the group S that the
        zero-weight messages (ker G among them) generate, which leaves
        them exactly when their words are not closed under addition.  S
        grows by the first zero-weight message w outside it: with step
        the key of x + w, the key of x becomes the least over x, x + w,
        x + 2w, ... up to the first multiple of w already in S."""
        order, zero = self.ring.order, np.flatnonzero(self.numerators == 0)
        least = np.arange(len(self.numerators))
        if (least[zero] != 0).any():
            x = decode_vectors(least, order, self.k)
        while (outside := zero[least[zero] != 0]).size:
            step = encode_vectors(self.ring.add_table[x, x[outside[0]]], order)
            grown, at, multiple = least.copy(), np.arange(len(least)), step[0]
            while least[multiple] != 0:
                at, multiple = step[at], step[multiple]
                np.minimum(grown, least[at], out=grown)
            least = grown
        if (self.numerators[least == 0] != 0).any():
            raise IdentityCheckError(
                "zero-weight words are not closed under addition",
                witness={"ring": self.ring.spec.text()})
        return least

    def words_of(self, keys, columns=slice(None)):
        """The words x G of the given message keys, in the columns."""
        x = decode_vectors(keys, self.ring.order, self.k)
        return combine_rows(self.ring, self.generator[:, columns], x)

    @cached_property
    def support(self):
        """The occurring points' vectors and 0 (see support_with_zero)."""
        return support_with_zero(self)

    def two_weight(self, purpose):
        """The two-weight profile, for a purpose that needs one: raises
        PreconditionError("<purpose> needs a two-weight code") when the
        code does not have exactly two nonzero weights."""
        if self.profile is None:
            raise PreconditionError(f"{purpose} needs a two-weight code")
        return self.profile

    def modular_two_weight(self, purpose):
        """As two_weight, for a purpose that also needs a modular code: a
        two-weight code that is not modular raises "code is not modular"
        before the profile's closed forms are checked."""
        if len(self.nonzero_weights) == 2 and self.index is None:
            raise PreconditionError("code is not modular")
        return self.two_weight(purpose)

    def __repr__(self):
        return (f"LinearCode({self.ring.spec.text()}, k={self.k}, "
                f"n={self.n}, size={self.size})")


def build_code(ring, generator, cap=None):
    """The left code of the rows of a k x n matrix, held on R^k."""
    # the entries are range-checked before they are narrowed to the
    # element dtype
    G = np.asarray(generator)
    if G.ndim != 2 or G.size == 0:
        raise PreconditionError("generator must be a nonempty 2-D matrix")
    if (G < 0).any() or (G >= ring.order).any():
        raise PreconditionError(
            f"generator entries must be element indices below {ring.order}")
    G = np.ascontiguousarray(G, dtype=ELEMENT_DTYPE)
    zero_cols = np.flatnonzero((G == 0).all(axis=0))
    if len(zero_cols) > 0:
        raise ZeroColumnError(
            f"generator column {int(zero_cols[0])} is all-zero")
    enumeration_size(ring.order, G.shape[0], cap)
    code = LinearCode(ring, G, weight_table(ring))
    code.coset_keys  # raises when the zero-weight words are not closed
    return code


def _column_blocks(code, entries):
    """(columns, words): the words x G of every message x in R^k, by
    key, a block of at most `entries` entries' columns at a time."""
    total, G = code.ring.order ** code.k, code.generator
    width = max(1, entries // total)
    for j in range(0, code.n, width):
        yield slice(j, j + width), message_words(code.ring, G[:, j:j + width],
                                                 total)


def least_messages(code, labels, count):
    """For each label 0 .. count - 1 (-1: none), the least message key
    with the lexicographically least word of that label's messages: by
    column, the messages still tied keep their label's least entry."""
    alive = np.flatnonzero(labels >= 0)
    for j in range(code.n):
        entries = code.words_of(alive, [j])[:, 0]
        least = np.full(count, code.ring.order)
        np.minimum.at(least, labels[alive], entries)
        alive = alive[entries == least[labels[alive]]]
    _, first = np.unique(labels[alive], return_index=True)
    return alive[first]


def modular_index(code):
    """The common ratio multiplicity / orbit size over all occurring
    column points, or None when the ratios disagree."""
    ratios = {Fraction(mult, orbit_size)
              for _, _, orbit_size, mult in code.points}
    if len(ratios) == 1:
        return ratios.pop()
    return None


@dataclass(frozen=True)
class TwoWeightProfile:
    n: int
    size: int
    b0: int
    w1: Fraction
    w2: Fraction
    b1: int
    b2: int
    index: Fraction = None

    @property
    def trivial(self):
        """Predicted graph triviality of a modular code: smaller weight
        equals the length.  None for a non-modular code, whose coset
        graph the closed forms do not predict."""
        if self.index is None:
            return None
        return self.w1 == self.n


def two_weight_profile(code):
    """The two-weight profile of the code, or None if the number of
    distinct nonzero weights differs from two; checked by
    _checked_profile."""
    if len(code.nonzero_weights) != 2:
        return None
    dist = code.weight_distribution
    w1, w2 = code.nonzero_weights
    return _checked_profile(TwoWeightProfile(
        n=code.n, size=code.size, b0=dist.get(Fraction(0), 0), w1=w1,
        w2=w2, b1=dist[w1], b2=dist[w2], index=code.index))


def _checked_profile(profile):
    """The profile, once its frequencies agree with their closed forms,
    its larger weight exceeds the length, and, when it is modular, the
    power-sum relation holds."""
    n, size, b0, index = profile.n, profile.size, profile.b0, profile.index
    w1, w2, b1, b2 = profile.w1, profile.w2, profile.b1, profile.b2
    b1_closed = ((w2 - n) * size - w2 * b0) / (w2 - w1)
    b2_closed = ((n - w1) * size + w1 * b0) / (w2 - w1)
    if b1 != b1_closed or b2 != b2_closed:
        raise IdentityCheckError(
            "two-weight frequencies disagree with their closed forms",
            witness={"b1": b1, "b1_closed": str(b1_closed),
                     "b2": b2, "b2_closed": str(b2_closed)})
    if w2 <= n:
        raise IdentityCheckError(
            "larger weight does not exceed the length",
            witness={"w2": str(w2), "n": n})
    if index is not None:
        lhs = (w1 + w2) * n * size
        rhs = (n * n + index * n) * size + w1 * w2 * (size - b0)
        if lhs != rhs:
            raise IdentityCheckError(
                "power-sum relation between the two weights fails",
                witness={"lhs": str(lhs), "rhs": str(rhs)})
    return profile


def support_with_zero(code):
    """All vectors of R^k lying on an occurring column point, plus 0."""
    rows = [np.zeros((1, code.k), dtype=ELEMENT_DTYPE)]
    for _, rep, _, _ in code.points:
        rows.append(unit_orbit(code.ring, rep))
    stacked = np.concatenate(rows, axis=0)
    keys = np.unique(encode_vectors(stacked, code.ring.order))
    return decode_vectors(keys, code.ring.order, code.k)


def one_weight_verdict(ring, is_one, is_mod, is_sub, generator):
    """Certify that a code with trivial zero-weight subcode is one-weight
    exactly when it is modular and its occurring points with 0 form a
    right submodule (is_sub).  generator is called for the witness of a
    failure."""
    if is_one != (is_mod and is_sub):
        raise IdentityCheckError(
            "one-weight characterization fails",
            witness={"ring": ring.spec.text(),
                     "generator": generator().tolist(),
                     "one_weight": is_one, "modular": is_mod,
                     "support_submodule": is_sub})


# --------------------------------------- exact identity evaluation


def _identity_sides(code):
    """The shifted-weight identities of a modular code of index r = p/q,
    one row each, as int64 numerators over the row's denominator.  The
    left side at a shift d (a word, or one coordinate's value) is the
    row's codeword coefficients times w(c + d) summed over c; the right
    side is m const + slope w(d), m = n for a word and 1 for a value.

    - Row 0, over q D^2: the sum over codewords of w(c) w(c + d) is
      |C| (n^2 + rn - r w(d)), per coordinate |C| (n + r - r w(d_j)).
    - Rows 1 and 2, for a two-weight code, over n D^2: the sum of
      w(c + d) over the smaller-weight class is
      b1 w1 + (b1 - b1 w1 / n) w(d), per coordinate b1 w1 / n + the same
      slope; over the larger-weight class, n |C| - b0 w(d) minus that.

    Returns the message coefficient rows, const, slope and denominators."""
    index = code.index
    if index is None:
        raise PreconditionError("correlation identity needs a modular code")
    profile, D, n, size = code.profile, code.denominator, code.n, code.size
    p, q = index.numerator, index.denominator
    rows, dens = [q * code.numerators], [q * D * D]
    const, slope = [size * D * D * (n * q + p)], [-size * p * D]
    if profile is not None:
        b0, b1, w1num = profile.b0, profile.b1, int(profile.w1 * D)
        rows += [n * D * (code.numerators == int(w * D))
                 for w in (profile.w1, profile.w2)]
        dens += [n * D * D] * 2
        const += [b1 * w1num * D, n * size * D * D - b1 * w1num * D]
        slope += [b1 * n * D - b1 * w1num,
                  b1 * w1num - b1 * n * D - b0 * n * D]
    return (np.stack(rows).astype(np.int64), np.array(const),
            np.array(slope), dens)


def coordinate_weight_sums(code):
    """Both sides of every identity of _identity_sides at every
    coordinate j and value d_j, as (rows, n, order) arrays, and the
    denominators.  The messages are counted by their column of row
    coefficients and by the entry e = c_j of their word, a block of
    columns at a time; the left side at (j, d_j) is those counts times
    the coefficients and w(e + d_j), summed over e."""
    rows, const, slope, dens = _identity_sides(code)
    order, num = code.ring.order, code.table.numerators
    coefficients, label = np.unique(rows, axis=1, return_inverse=True)
    label, kinds = label.reshape(-1, 1), coefficients.shape[1]
    by_entry = []
    for _, words in _column_blocks(code, BLOCK_ENTRIES):
        width = words.shape[1]
        bins = (np.arange(width) * kinds + label) * order + words
        counts = np.bincount(bins.ravel(), minlength=width * kinds * order)
        by_entry.append(np.einsum("rk,jke->rje", coefficients,
                                  counts.reshape(width, kinds, order)))
    lhs = (np.concatenate(by_entry, axis=1) @ num[code.ring.add_table]
           // len(code.kernel))
    rhs = const[:, None] + slope[:, None] * num
    return lhs, np.broadcast_to(rhs[:, None, :], lhs.shape), dens


# ------------------------------------------------------------- the sweep


def sweep_code_identities(code):
    """Check the identities of _identity_sides that the code has at
    every coordinate j and value d_j, and return the names of the checks
    passed: none unless it is modular, "code-correlation", and for a
    two-weight code "class-coset-sums" and "coordinate-identities", the
    latter with the smaller-class column sum b1 w1 / n.  Since
    w(c + d) = sum_j w(c_j + d_j), and both right sides add up the same
    way, the coordinate sides summed over j are the sides at the shift
    d: checking every (j, d_j) proves the identity at every d in R^n."""
    profile = code.profile  # a corrupted profile fails before any sweep
    if code.index is None:
        return []
    ring = code.ring.spec.text()
    lhs, rhs, dens = coordinate_weight_sums(code)
    names = ("correlation", "class sum", "larger-class sum")
    for j in range(code.n):
        for name, row_lhs, row_rhs in zip(names, lhs[:, j], rhs[:, j]):
            bad = np.flatnonzero(row_lhs != row_rhs)
            if len(bad):
                raise IdentityCheckError(
                    f"per-coordinate {name} identity fails",
                    witness={"ring": ring, "j": j, "dj": int(bad[0])})
        if profile is None:
            continue
        if (Fraction(int(lhs[1, j, 0]), dens[1])
                != profile.b1 * profile.w1 / code.n):
            raise IdentityCheckError(
                "smaller-class column sum is not b1 w1 / n",
                witness={"ring": ring, "j": j})
    if profile is None:
        return ["code-correlation"]
    return ["code-correlation", "class-coset-sums", "coordinate-identities"]


# ------------------------------------------------------- file format


@dataclass(frozen=True)
class CodeFile:
    ring_text: str
    k: int
    n: int
    rows: tuple


def parse_code_file(text):
    """Parse the code input format: a ring line, a shape line, then k
    rows of n element indices."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise SpecParseError("code file needs a ring line, a shape line, "
                             "and at least one generator row")
    if not lines[0].startswith("ring:"):
        raise SpecParseError("first line must be 'ring: <spec>'")
    ring_text = lines[0][len("ring:"):].strip()
    shape = lines[1].split()
    if (len(shape) != 4 or shape[0] != "k:" or shape[2] != "n:"):
        raise SpecParseError("second line must be 'k: <int> n: <int>'")
    try:
        k, n = int(shape[1]), int(shape[3])
    except ValueError:
        raise SpecParseError("k and n must be integers") from None
    rows = []
    for ln in lines[2:]:
        try:
            row = tuple(int(tok) for tok in ln.split())
        except ValueError:
            raise SpecParseError(f"bad generator row: {ln!r}") from None
        rows.append(row)
    if len(rows) != k or any(len(r) != n for r in rows):
        raise SpecParseError(
            f"expected {k} rows of {n} entries")
    return CodeFile(ring_text, k, n, tuple(rows))


def format_code_file(ring_text, generator):
    G = np.asarray(generator)
    lines = [f"ring: {ring_text}", f"k: {G.shape[0]} n: {G.shape[1]}"]
    for row in G:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"
