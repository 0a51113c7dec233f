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

import numpy as np

from .errors import (
    IdentityCheckError,
    PreconditionError,
    SpecParseError,
    ZeroColumnError,
)
from .homweight import weight_table
from .spans import (
    combine_rows,
    encode_vectors,
    enumerate_vectors,
    is_submodule,
    point_ids,
    unit_orbit,
)

_SAMPLE_COUNT = 200


class LinearCode:
    """A left linear code, fully enumerated: its words in sorted order,
    and for each word one message x with x G equal to it."""

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
        self._distribution = None
        self._points = None

    @property
    def size(self):
        return len(self.words)

    def weight_values(self):
        """Distinct codeword weights, ascending."""
        return tuple(Fraction(int(v), self.denominator)
                     for v in sorted(set(self.word_numerators.tolist())))

    def weight_distribution(self):
        """Mapping weight -> number of codewords of that weight."""
        if self._distribution is None:
            vals, counts = np.unique(self.word_numerators,
                                     return_counts=True)
            self._distribution = {
                Fraction(int(v), self.denominator): int(c)
                for v, c in zip(vals, counts)
            }
        return dict(self._distribution)

    def words_of_numerator(self, numerator):
        return self.words[self.word_numerators == numerator]

    def zero_weight_words(self):
        return self.words_of_numerator(0)

    @property
    def b0(self):
        return int((self.word_numerators == 0).sum())

    def contains(self, word):
        key = int(encode_vectors(np.asarray(word)[None, :],
                                 self.ring.order)[0])
        pos = np.searchsorted(self.word_keys, key)
        return pos < len(self.word_keys) and self.word_keys[pos] == key

    def points(self):
        """Column points: list of (point id, representative column,
        orbit size, multiplicity)."""
        if self._points is None:
            pids, sizes = point_ids(self.ring, self.generator.T)
            uniq, first, mult = np.unique(pids, return_index=True,
                                          return_counts=True)
            self._points = [
                (int(pid), self.generator[:, j].copy(), int(sizes[j]),
                 int(m)) for pid, j, m in zip(uniq, first, mult)]
        return list(self._points)

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
    keys = encode_vectors(sums, code.ring.order)
    zero_keys = np.sort(encode_vectors(zero_words, code.ring.order))
    pos = np.clip(np.searchsorted(zero_keys, keys), 0, len(zero_keys) - 1)
    if not (zero_keys[pos] == keys).all():
        raise IdentityCheckError(
            "zero-weight words are not closed under addition",
            witness={"ring": code.ring.spec.text()})


def modular_index(code):
    """The common ratio multiplicity / orbit size over all occurring
    column points, or None when the ratios disagree."""
    ratios = {Fraction(mult, orbit_size)
              for _, _, orbit_size, mult in code.points()}
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


def two_weight_profile(code, require_modular=False):
    """The two-weight profile of the code, or None if the number of
    distinct nonzero weights differs from two.  Frequencies are
    cross-checked against their closed forms."""
    dist = code.weight_distribution()
    nonzero = sorted(v for v in dist if v != 0)
    if len(nonzero) != 2:
        return None
    w1, w2 = nonzero
    b0 = dist.get(Fraction(0), 0)
    b1, b2 = dist[w1], dist[w2]
    size, n = code.size, code.n
    index = modular_index(code)
    if require_modular and index is None:
        raise PreconditionError("code is not modular")

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
    for _, rep, _, _ in code.points():
        rows.append(unit_orbit(code.ring, rep, "right"))
    stacked = np.concatenate(rows, axis=0)
    keys = np.unique(encode_vectors(stacked, code.ring.order))
    from .spans import decode_vectors

    return decode_vectors(keys, code.ring.order, code.k)


def one_weight_characterization(code):
    """Check the equivalence: a code is one-weight exactly when it is
    modular and the occurring points fill a right submodule.  Needs a
    trivial zero-weight subcode.  Returns (is_one_weight, is_modular,
    support_is_submodule)."""
    if code.b0 != 1:
        raise PreconditionError(
            "one-weight characterization needs a trivial zero-weight "
            "subcode")
    nonzero = [v for v in code.weight_values() if v != 0]
    is_one = len(nonzero) == 1
    is_mod = modular_index(code) is not None
    supp = support_with_zero(code)
    is_sub = is_submodule(code.ring, supp, "right")
    if is_one != (is_mod and is_sub):
        raise IdentityCheckError(
            "one-weight characterization fails",
            witness={"ring": code.ring.spec.text(),
                     "generator": code.generator.tolist(),
                     "one_weight": is_one, "modular": is_mod,
                     "support_submodule": is_sub})
    return is_one, is_mod, is_sub


# --------------------------------------- exact identity evaluation


def code_correlation(code, d):
    """(lhs, rhs) of: sum over codewords c of w(c) w(c + d) equals
    |C| (n^2 + rn - r w(d)), for a modular code of index r."""
    index = modular_index(code)
    if index is None:
        raise PreconditionError("correlation identity needs a modular code")
    d = np.asarray(d, dtype=np.int32)
    num = code.table.numerators
    D = code.denominator
    shifted = num[code.ring.add_table[code.words, d[None, :]]].sum(axis=1)
    lhs_num = int(code.word_numerators.astype(object) @ shifted.astype(object))
    lhs = Fraction(lhs_num, D * D)
    wd = code.table.word_value(d)
    rhs = code.size * (code.n * code.n + index * code.n - index * wd)
    return lhs, rhs


def class_coset_sum(code, d, which):
    """(lhs, rhs) of the class-wise shifted weight sums for a modular
    two-weight code: the smaller-weight class has the affine form in
    w(d); the larger-weight class is determined by complementation."""
    profile = two_weight_profile(code, require_modular=True)
    if profile is None:
        raise PreconditionError("code is not two-weight")
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    d = np.asarray(d, dtype=np.int32)
    num = code.table.numerators
    D = code.denominator
    wd = code.table.word_value(d)
    w1num = int(profile.w1 * D)
    class_num = w1num if which == 1 else int(profile.w2 * D)
    rows = code.words_of_numerator(class_num)
    shifted = num[code.ring.add_table[rows, d[None, :]]].sum(axis=1)
    lhs = Fraction(int(shifted.sum()), D)
    rhs1 = (profile.b1 * profile.w1
            + (profile.b1 - Fraction(profile.b1 * profile.w1, profile.n))
            * wd)
    if which == 1:
        return lhs, rhs1
    rhs2 = code.n * code.size - profile.b0 * wd - rhs1
    return lhs, rhs2


def coordinate_correlation(code, j, dj):
    """(lhs, rhs) of: sum over c of w(c) w(c_j + d_j) equals
    |C| (n + r - r w(d_j))."""
    index = modular_index(code)
    if index is None:
        raise PreconditionError("correlation identity needs a modular code")
    num = code.table.numerators
    D = code.denominator
    col = code.ring.add_table[code.words[:, j], dj]
    lhs_num = int(code.word_numerators.astype(object) @ num[col].astype(object))
    lhs = Fraction(lhs_num, D * D)
    wdj = code.table.value(dj)
    rhs = code.size * (code.n + index - index * wdj)
    return lhs, rhs


def coordinate_class_sum(code, j, dj):
    """(lhs, rhs) of: sum over the smaller-weight class of w(c_j + d_j)
    equals b1 w1 / n + (b1 - b1 w1 / n) w(d_j)."""
    profile = two_weight_profile(code, require_modular=True)
    if profile is None:
        raise PreconditionError("code is not two-weight")
    num = code.table.numerators
    D = code.denominator
    w1num = int(profile.w1 * D)
    rows = code.words_of_numerator(w1num)
    lhs = Fraction(int(num[code.ring.add_table[rows[:, j], dj]].sum()), D)
    head = Fraction(profile.b1 * profile.w1, profile.n)
    rhs = head + (profile.b1 - head) * code.table.value(dj)
    return lhs, rhs


# ----------------------------------------------------- batched sweeps


def _sweep_vectors(code, full, seed, cap=None):
    order = code.ring.order
    if full:
        return enumerate_vectors(order, code.n, cap), True
    rng = np.random.default_rng(seed)
    return rng.integers(0, order, size=(_SAMPLE_COUNT, code.n),
                        endpoint=False).astype(np.int32), False


def sweep_code_correlation(code, full=True, seed=0, cap=None):
    """Check the codeword correlation identity over all of R^n (or a
    fixed-seed sample); returns the number of shifts checked."""
    index = modular_index(code)
    if index is None:
        raise PreconditionError("correlation identity needs a modular code")
    ds, _ = _sweep_vectors(code, full, seed, cap)
    num = code.table.numerators
    D = code.denominator
    wn = code.word_numerators.astype(np.int64)
    size, n = code.size, code.n
    p, q = index.numerator, index.denominator
    batch = max(1, (1 << 22) // max(1, size * n))
    for start in range(0, len(ds), batch):
        chunk = ds[start:start + batch]
        shifted = num[code.ring.add_table[code.words[:, None, :],
                                          chunk[None, :, :]]].sum(axis=2)
        lhs = wn @ shifted
        wdnum = num[chunk].sum(axis=1)
        rhs = size * (n * n * D * D * q + p * n * D * D - p * wdnum * D)
        if not (q * lhs == rhs).all():
            bad = int(np.flatnonzero(q * lhs != rhs)[0])
            d = chunk[bad]
            raise IdentityCheckError(
                "codeword correlation identity fails",
                witness={"ring": code.ring.spec.text(),
                         "d": d.tolist(),
                         "lhs": str(Fraction(int(lhs[bad]), D * D))})
    return len(ds)


def sweep_class_coset_sums(code, full=True, seed=0, cap=None):
    """Check both class-wise shifted weight sums over all of R^n (or a
    fixed-seed sample); returns the number of shifts checked."""
    profile = two_weight_profile(code, require_modular=True)
    if profile is None:
        raise PreconditionError("code is not two-weight")
    ds, _ = _sweep_vectors(code, full, seed, cap)
    num = code.table.numerators
    D = code.denominator
    size, n, b0, b1 = code.size, code.n, profile.b0, profile.b1
    w1num = int(profile.w1 * D)
    w2num = int(profile.w2 * D)
    rows1 = code.words_of_numerator(w1num)
    rows2 = code.words_of_numerator(w2num)
    batch = max(1, (1 << 22) // max(1, size * n))
    for start in range(0, len(ds), batch):
        chunk = ds[start:start + batch]
        wdnum = num[chunk].sum(axis=1)
        lhs1 = num[code.ring.add_table[rows1[:, None, :],
                                       chunk[None, :, :]]].sum(axis=(0, 2))
        lhs2 = num[code.ring.add_table[rows2[:, None, :],
                                       chunk[None, :, :]]].sum(axis=(0, 2))
        # rhs1 = b1 w1 + (b1 - b1 w1 / n) w(d), all times n D^2
        rhs1 = b1 * w1num * n * D + (b1 * n * D - b1 * w1num) * wdnum
        if not (lhs1 * n * D == rhs1).all():
            bad = int(np.flatnonzero(lhs1 * n * D != rhs1)[0])
            raise IdentityCheckError(
                "smaller-class shifted weight sum fails",
                witness={"ring": code.ring.spec.text(),
                         "d": chunk[bad].tolist(),
                         "lhs": str(Fraction(int(lhs1[bad]), D))})
        # rhs2 = n |C| - b0 w(d) - rhs1, all times n D^2
        rhs2 = n * n * size * D * D - b0 * n * D * wdnum - rhs1
        if not (lhs2 * n * D == rhs2).all():
            bad = int(np.flatnonzero(lhs2 * n * D != rhs2)[0])
            raise IdentityCheckError(
                "larger-class shifted weight sum fails",
                witness={"ring": code.ring.spec.text(),
                         "d": chunk[bad].tolist(),
                         "lhs": str(Fraction(int(lhs2[bad]), D))})
    return len(ds)


def sweep_coordinate_identities(code):
    """Check both per-coordinate identities for every coordinate and
    every shift value; also confirms the constant smaller-class column
    sum b1 w1 / n.  Returns the number of (j, value) pairs checked."""
    profile = two_weight_profile(code, require_modular=True)
    if profile is None:
        raise PreconditionError("code is not two-weight")
    index = profile.index
    num = code.table.numerators
    D = code.denominator
    size, n, b1 = code.size, code.n, profile.b1
    w1num = int(profile.w1 * D)
    rows1 = code.words_of_numerator(w1num)
    wn = code.word_numerators.astype(np.int64)
    p, q = index.numerator, index.denominator
    checked = 0
    for j in range(code.n):
        shifted = num[code.ring.add_table[code.words[:, j], :]]
        lhs_corr = wn @ shifted
        rhs_corr = size * (n * D * D * q + p * D * D - p * num * D)
        if not (q * lhs_corr == rhs_corr).all():
            dj = int(np.flatnonzero(q * lhs_corr != rhs_corr)[0])
            raise IdentityCheckError(
                "per-coordinate correlation identity fails",
                witness={"ring": code.ring.spec.text(), "j": j, "dj": dj})
        lhs_cls = num[code.ring.add_table[rows1[:, j], :]].sum(axis=0)
        rhs_cls = b1 * w1num * D + (b1 * n * D - b1 * w1num) * num
        if not (lhs_cls * n * D == rhs_cls).all():
            dj = int(np.flatnonzero(lhs_cls * n * D != rhs_cls)[0])
            raise IdentityCheckError(
                "per-coordinate class sum identity fails",
                witness={"ring": code.ring.spec.text(), "j": j, "dj": dj})
        if int(lhs_cls[0]) * n != b1 * w1num:
            raise IdentityCheckError(
                "smaller-class column sum is not b1 w1 / n",
                witness={"ring": code.ring.spec.text(), "j": j})
        checked += code.ring.order
    return checked


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
