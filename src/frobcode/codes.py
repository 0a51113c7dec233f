"""Left linear codes over a finite ring, their weight profiles, and the
closed-form identities tying modular two-weight codes to their graphs.

A code is stored as the sorted array of its codewords together with the
generator matrix that produced it.  Column multiplicities are tracked
per projective point (right unit orbit of a nonzero column); a code is
modular when every occurring point has multiplicity proportional to its
orbit size, and the proportionality constant is the index.
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
from .homweight import SAMPLE_COUNT, weight_table
from .spans import (
    combine_rows,
    decode_vectors,
    encode_vectors,
    enumerate_vectors,
    is_submodule,
    lookup,
    point_ids,
    unit_orbit,
)

# The code sweeps check every shift in R^n up to this many, and take
# their shifts in batches of at most _BATCH_ENTRIES summands.
_EXHAUSTIVE_SHIFTS = 4096
_BATCH_ENTRIES = 1 << 22


class LinearCode:
    """A left linear code, fully enumerated: its words in sorted order,
    and for each word one message x with x G equal to it.  The facts
    derived from them (points, index, weights, two-weight profile,
    support) are computed once, at first use."""

    def __init__(self, ring, generator, words, messages, table):
        self.ring = ring
        self.generator = np.ascontiguousarray(generator, dtype=np.int32)
        self.k, self.n = self.generator.shape
        self.words = words
        self.messages = messages
        self.word_keys = encode_vectors(words, ring.order)
        self.table = table
        self.word_numerators = table.word_numerator(words)
        self.denominator = table.denominator

    @property
    def size(self):
        return len(self.words)

    @cached_property
    def weight_distribution(self):
        """Mapping weight -> number of codewords of that weight, by
        ascending weight."""
        vals, counts = np.unique(self.word_numerators, return_counts=True)
        return {Fraction(int(v), self.denominator): int(c)
                for v, c in zip(vals, counts)}

    @cached_property
    def nonzero_weights(self):
        """Distinct nonzero codeword weights, ascending."""
        return tuple(v for v in self.weight_distribution if v != 0)

    def words_of_numerator(self, numerator):
        return self.words[self.word_numerators == numerator]

    def zero_weight_words(self):
        return self.words_of_numerator(0)

    @property
    def b0(self):
        return int((self.word_numerators == 0).sum())

    def contains(self, word):
        key = encode_vectors(np.asarray(word)[None, :], self.ring.order)
        return bool(lookup(self.word_keys, key)[1][0])

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

    @classmethod
    def from_words(cls, ring, generator, words, messages, message_count):
        """The code with the given sorted unique words and their
        messages, after the checks every enumerated code gets: its size
        divides the number of messages, and its zero-weight words are
        closed under addition."""
        code = cls(ring, generator, words, messages, weight_table(ring))
        if message_count % code.size != 0:
            raise IdentityCheckError(
                "code size does not divide the message space",
                witness={"size": code.size, "messages": message_count})
        _check_zero_class_subgroup(code)
        return code


def build_code(ring, generator, cap=None):
    """Enumerate the left code generated by the rows of a k x n matrix."""
    G = np.ascontiguousarray(generator, dtype=np.int32)
    if G.ndim != 2 or G.size == 0:
        raise PreconditionError("generator must be a nonempty 2-D matrix")
    if (G < 0).any() or (G >= ring.order).any():
        raise PreconditionError(
            f"generator entries must be element indices below {ring.order}")
    zero_cols = np.flatnonzero((G == 0).all(axis=0))
    if len(zero_cols) > 0:
        raise ZeroColumnError(
            f"generator column {int(zero_cols[0])} is all-zero")
    X = enumerate_vectors(ring.order, G.shape[0], cap)
    all_words = combine_rows(ring, G, X)
    _, first = np.unique(encode_vectors(all_words, ring.order),
                         return_index=True)
    return LinearCode.from_words(ring, G, all_words[first], X[first],
                                 len(X))


def _check_zero_class_subgroup(code):
    zero_words = code.zero_weight_words()
    sums = code.ring.add_table[zero_words[:, None, :],
                               zero_words[None, :, :]]
    sums = sums.reshape(-1, code.n)
    zero_keys = np.sort(encode_vectors(zero_words, code.ring.order))
    if not lookup(zero_keys, encode_vectors(sums, code.ring.order))[1].all():
        raise IdentityCheckError(
            "zero-weight words are not closed under addition",
            witness={"ring": code.ring.spec.text()})


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
        """Predicted graph triviality: smaller weight equals the length."""
        return self.w1 == self.n


def two_weight_profile(code):
    """The two-weight profile of the code, or None if the number of
    distinct nonzero weights differs from two.  Frequencies are
    cross-checked against their closed forms, and the power-sum
    relation too when the code is modular."""
    if len(code.nonzero_weights) != 2:
        return None
    dist = code.weight_distribution
    w1, w2 = code.nonzero_weights
    b0 = dist.get(Fraction(0), 0)
    b1, b2 = dist[w1], dist[w2]
    size, n = code.size, code.n
    index = code.index

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
    return TwoWeightProfile(n=n, size=size, b0=b0, w1=w1, w2=w2,
                            b1=b1, b2=b2, index=index)


def support_with_zero(code):
    """All vectors of R^k lying on an occurring column point, plus 0."""
    rows = [np.zeros((1, code.k), dtype=np.int32)]
    for _, rep, _, _ in code.points:
        rows.append(unit_orbit(code.ring, rep, "right"))
    stacked = np.concatenate(rows, axis=0)
    keys = np.unique(encode_vectors(stacked, code.ring.order))
    return decode_vectors(keys, code.ring.order, code.k)


def one_weight_characterization(code):
    """Check the equivalence of one_weight_verdict on a code with
    trivial zero-weight subcode.  Returns (is_one_weight, is_modular,
    support_is_submodule)."""
    if code.b0 != 1:
        raise PreconditionError(
            "one-weight characterization needs a trivial zero-weight "
            "subcode")
    facts = (len(code.nonzero_weights) == 1, code.index is not None,
             is_submodule(code.ring, code.support, "right"))
    one_weight_verdict(code.ring, *facts, lambda: code.generator)
    return facts


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
#
# Each evaluator gives both sides of one identity for a batch of shifts,
# as int64 numerators over one common denominator, which it returns too.


def code_correlation(code, ds):
    """Both sides of: sum over codewords c of w(c) w(c + d) equals
    |C| (n^2 + rn - r w(d)), for a modular code of index r = p/q and
    each shift d in the rows of ds; numerators over q D^2."""
    index = code.index
    if index is None:
        raise PreconditionError("correlation identity needs a modular code")
    num = code.table.numerators
    D = code.denominator
    n = code.n
    p, q = index.numerator, index.denominator
    shifted = num[code.ring.add_table[code.words[:, None, :],
                                      ds[None, :, :]]].sum(axis=2)
    lhs = q * (code.word_numerators @ shifted)
    rhs = code.size * (n * n * D * D * q + p * n * D * D
                       - p * D * num[ds].sum(axis=1))
    return lhs, rhs, q * D * D


def class_coset_sums(code, ds):
    """Both sides of the class-wise shifted weight sums of a modular
    two-weight code, for each shift d in the rows of ds: over the
    smaller-weight class, the sum of w(c + d) equals
    b1 w1 + (b1 - b1 w1 / n) w(d); over the larger-weight class, it is
    n |C| - b0 w(d) minus that.  Returns [(lhs1, rhs1), (lhs2, rhs2)]
    as numerators over n D^2, and that denominator."""
    profile = code.modular_two_weight("class coset sum")
    num = code.table.numerators
    D = code.denominator
    n, b1 = code.n, profile.b1
    w1num = int(profile.w1 * D)
    wd = num[ds].sum(axis=1)
    rhs1 = b1 * w1num * n * D + (b1 * n * D - b1 * w1num) * wd
    rhs2 = n * n * code.size * D * D - profile.b0 * n * D * wd - rhs1
    sides = []
    for weight, rhs in ((profile.w1, rhs1), (profile.w2, rhs2)):
        rows = code.words_of_numerator(int(weight * D))
        lhs = num[code.ring.add_table[rows[:, None, :],
                                      ds[None, :, :]]].sum(axis=(0, 2))
        sides.append((n * D * lhs, rhs))
    return sides, n * D * D


def coordinate_correlation(code, js):
    """Both sides of: sum over codewords c of w(c) w(c_j + d_j) equals
    |C| (n + r - r w(d_j)), for a modular code of index r = p/q, each
    coordinate j in js and every value d_j; (len(js), order)
    numerators over q D^2."""
    index = code.index
    if index is None:
        raise PreconditionError("correlation identity needs a modular code")
    num = code.table.numerators
    D = code.denominator
    p, q = index.numerator, index.denominator
    columns = num[code.ring.add_table[code.words[:, js], :]]
    lhs = q * np.tensordot(code.word_numerators, columns, axes=1)
    rhs = code.size * (code.n * D * D * q + p * D * D - p * D * num)
    return lhs, np.broadcast_to(rhs, lhs.shape), q * D * D


def coordinate_class_sum(code, js):
    """Both sides of: over the smaller-weight class of a modular
    two-weight code, the sum of w(c_j + d_j) equals
    b1 w1 / n + (b1 - b1 w1 / n) w(d_j), for each coordinate j in js
    and every value d_j; (len(js), order) numerators over n D^2."""
    profile = code.modular_two_weight("coordinate class sum")
    num = code.table.numerators
    D = code.denominator
    n, b1 = code.n, profile.b1
    w1num = int(profile.w1 * D)
    rows = code.words_of_numerator(w1num)
    lhs = n * D * num[code.ring.add_table[rows[:, js], :]].sum(axis=0)
    rhs = b1 * w1num * D + (b1 * n * D - b1 * w1num) * num
    return lhs, np.broadcast_to(rhs, lhs.shape), n * D * D


# ----------------------------------------------------- batched sweeps


def sweep_shifts(code, full=False, sample=None, seed=0, cap=None):
    """The shifts d that the code sweeps check: all of R^n with `full`,
    or when no sample size is given and R^n has at most 4096 vectors;
    otherwise `sample` (default 200) vectors from default_rng(seed)."""
    order = code.ring.order
    if full or (sample is None and order ** code.n <= _EXHAUSTIVE_SHIFTS):
        return enumerate_vectors(order, code.n, cap)
    rng = np.random.default_rng(seed)
    return rng.integers(0, order, size=(sample or SAMPLE_COUNT, code.n),
                        endpoint=False).astype(np.int32)


def _shift_batches(code, shifts):
    batch = max(1, _BATCH_ENTRIES // max(1, code.size * code.n))
    for start in range(0, len(shifts), batch):
        yield shifts[start:start + batch]


def sweep_code_correlation(code, shifts):
    """Check the codeword correlation identity at every shift in the
    rows of `shifts` (see sweep_shifts); returns the number checked."""
    for chunk in _shift_batches(code, shifts):
        lhs, rhs, den = code_correlation(code, chunk)
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            raise IdentityCheckError(
                "codeword correlation identity fails",
                witness={"ring": code.ring.spec.text(),
                         "d": chunk[bad[0]].tolist(),
                         "lhs": str(Fraction(int(lhs[bad[0]]), den))})
    return len(shifts)


def sweep_class_coset_sums(code, shifts):
    """Check both class-wise shifted weight sums at every shift in the
    rows of `shifts` (see sweep_shifts); returns the number checked."""
    for chunk in _shift_batches(code, shifts):
        sides, den = class_coset_sums(code, chunk)
        for label, (lhs, rhs) in zip(("smaller", "larger"), sides):
            bad = np.flatnonzero(lhs != rhs)
            if len(bad):
                raise IdentityCheckError(
                    f"{label}-class shifted weight sum fails",
                    witness={"ring": code.ring.spec.text(),
                             "d": chunk[bad[0]].tolist(),
                             "lhs": str(Fraction(int(lhs[bad[0]]), den))})
    return len(shifts)


def sweep_coordinate_identities(code):
    """Check both per-coordinate identities for every coordinate and
    every shift value; also confirms the constant smaller-class column
    sum b1 w1 / n.  Returns the number of (j, value) pairs checked."""
    profile = code.modular_two_weight("coordinate identity sweep")
    ring = code.ring.spec.text()
    column_sum = profile.b1 * profile.w1 / code.n
    block = max(1, _BATCH_ENTRIES // max(1, code.size * code.ring.order))
    for start in range(0, code.n, block):
        js = np.arange(start, min(start + block, code.n))
        correlation = coordinate_correlation(code, js)
        class_sum = coordinate_class_sum(code, js)
        for i, j in enumerate(js.tolist()):
            for (lhs, rhs, _), name in ((correlation, "correlation"),
                                        (class_sum, "class sum")):
                bad = np.flatnonzero(lhs[i] != rhs[i])
                if len(bad):
                    raise IdentityCheckError(
                        f"per-coordinate {name} identity fails",
                        witness={"ring": ring, "j": j, "dj": int(bad[0])})
            lhs, _, den = class_sum
            if Fraction(int(lhs[i, 0]), den) != column_sum:
                raise IdentityCheckError(
                    "smaller-class column sum is not b1 w1 / n",
                    witness={"ring": ring, "j": j})
    return code.n * code.ring.order


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
