"""Exact homogeneous weights and their structural identity checks.

The normalized homogeneous weight of x is 1 - (1/|U|) * sum of chi(ux)
over the unit group U, with chi a generating character.  Writing chi as
a power of a primitive e-th root of unity, the unit-orbit sum becomes an
integer polynomial evaluated at that root; reducing the polynomial
modulo the e-th cyclotomic polynomial must leave an integer constant
(the sum is fixed by every Galois conjugation), so every weight is the
exact rational (D - k)/D with D = |U|.  Weights are stored as integer
numerators over the common denominator D, which keeps every downstream
identity check in integer arithmetic.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import constant_remainder, cyclotomic
from .errors import CapExceededError, CharacterError, IdentityCheckError
from .rings import order2_socle_part
from .spans import enumerate_vectors, point_ids

_IDEAL_COUNT_CAP = 4096


class WeightTable:
    """Homogeneous weights of one ring as numerators over a common
    denominator (the unit group size)."""

    def __init__(self, ring, numerators, denominator):
        self.ring = ring
        self.numerators = np.ascontiguousarray(numerators, dtype=np.int64)
        self.denominator = int(denominator)

    def value(self, x):
        return Fraction(int(self.numerators[x]), self.denominator)

    def fractions(self):
        return tuple(self.value(x) for x in range(len(self.numerators)))

    def word_numerator(self, words):
        words = np.asarray(words)
        return self.numerators[words].sum(axis=-1)

    def word_value(self, word):
        return Fraction(int(self.word_numerator(np.asarray(word))),
                        self.denominator)

    def zero_set(self):
        return frozenset(int(x) for x in np.flatnonzero(self.numerators == 0))

    def distinct_nonzero_values(self):
        vals = sorted(set(int(v) for v in self.numerators) - {0})
        return tuple(Fraction(v, self.denominator) for v in vals)

    def with_bumped_numerator(self, x, delta=1):
        """A corrupted copy for fault-injection drills; never cached."""
        numerators = self.numerators.copy()
        numerators[x] += delta
        return WeightTable(self.ring, numerators, self.denominator)


_table_cache = weakref.WeakKeyDictionary()


def weight_table(ring):
    table = _table_cache.get(ring)
    if table is None:
        table = _compute_table(ring)
        _table_cache[ring] = table
    return table


def _compute_table(ring):
    e = ring.exponent
    units = ring.units_array
    D = len(units)
    order = ring.order
    num = np.full(order, -1, dtype=np.int64)
    num[0] = 0
    exps = ring.char_exponents % e
    phi = cyclotomic(e)
    for x in range(1, order):
        if num[x] >= 0:
            continue
        prods = ring.mul_table[units, x]
        coeffs = np.bincount(exps[prods], minlength=e)
        try:
            k = constant_remainder(tuple(int(c) for c in coeffs), phi)
        except ValueError as exc:
            raise CharacterError(
                f"unit-orbit character sum at element {x} is not an "
                f"integer: {exc}") from None
        orbit = np.unique(prods)
        num[orbit] = D - k
    if (num < 0).any():
        missing = int(np.flatnonzero(num < 0)[0])
        raise CharacterError(
            f"element {missing} received no weight (orbit cover failed)")
    return WeightTable(ring, num, D)


def whom(ring, x):
    return weight_table(ring).value(x)


def whom_word(ring, word):
    return weight_table(ring).word_value(word)


# ------------------------------------------------ socle closed form


def whom_on_socle(factors, ranks):
    """Closed-form weight of a socle element from the simple-factor
    parameters [(q_i, m_i), ...] and its per-factor matrix ranks, as
    rings.socle_rank_data gives them."""
    prod = Fraction(1)
    for (q, m), l in zip(factors, ranks):
        denom = 1
        for j in range(l):
            denom *= q ** (m - j) - 1
        prod *= Fraction((-1) ** l, denom)
    return 1 - prod


# ---------------------------------------------------- ideal enumeration


def principal_ideal_elements(ring, x, side="left"):
    if side == "left":
        return np.unique(ring.mul_table[:, x])
    if side == "right":
        return np.unique(ring.mul_table[x, :])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def all_one_sided_ideals(ring, side="left", include_zero=False):
    """Every left (or right) ideal, as sorted element-index arrays.
    Built by closing the principal ideals under pairwise ideal sums."""
    found = {}
    for x in range(ring.order):
        ideal = principal_ideal_elements(ring, x, side)
        found.setdefault(ideal.tobytes(), ideal)
    frontier = list(found.values())
    while frontier:
        if len(found) > _IDEAL_COUNT_CAP:
            raise CapExceededError(
                f"more than {_IDEAL_COUNT_CAP} one-sided ideals")
        fresh = []
        for a in frontier:
            for b in list(found.values()):
                s = np.unique(ring.add_table[np.ix_(a, b)])
                key = s.tobytes()
                if key not in found:
                    found[key] = s
                    fresh.append(s)
        frontier = fresh
    ideals = sorted(found.values(), key=lambda v: (len(v), v.tolist()))
    if not include_zero:
        ideals = [i for i in ideals if len(i) > 1 or i[0] != 0]
    return ideals


# ------------------------------------------------------ identity checks


def check_zero_set(ring, table=None):
    """Weights are nonnegative, vanish exactly on the even-sum subgroup
    of the order-2 ideal generators, and are invariant under shifts by
    that subgroup."""
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    if (num < 0).any():
        x = int(np.flatnonzero(num < 0)[0])
        raise IdentityCheckError(
            f"negative weight at element {x}",
            witness={"ring": ring.spec.text(), "element": x,
                     "numerator": int(num[x])})
    _, s0 = order2_socle_part(ring)
    zero = table.zero_set()
    if zero != s0:
        raise IdentityCheckError(
            "zero set differs from the even-sum subgroup",
            witness={"ring": ring.spec.text(),
                     "zero_set": sorted(zero), "expected": sorted(s0)})
    for y in sorted(s0):
        shifted = num[ring.add_table[:, y]]
        if not (shifted == num).all():
            x = int(np.flatnonzero(shifted != num)[0])
            raise IdentityCheckError(
                f"weight not invariant under shift by {y}",
                witness={"ring": ring.spec.text(), "shift": y, "element": x})


def check_unit_invariance(ring, table=None):
    """w(ux) = w(x) = w(xu) for every unit u."""
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    units = ring.units_array
    left = num[ring.mul_table[units, :]]
    right = num[ring.mul_table[:, units].T]
    for name, scaled in (("left", left), ("right", right)):
        bad = scaled != num[None, :]
        if bad.any():
            u_pos, x = np.argwhere(bad)[0]
            raise IdentityCheckError(
                f"weight not {name}-unit invariant",
                witness={"ring": ring.spec.text(),
                         "unit": int(units[u_pos]), "element": int(x)})


def check_coset_sums(ring, table=None):
    """Sum of w(x + c) over any nonzero one-sided ideal equals the
    ideal size, for every shift c."""
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    D = table.denominator
    for side in ("left", "right"):
        for ideal in all_one_sided_ideals(ring, side):
            sums = num[ring.add_table[ideal, :]].sum(axis=0)
            expected = len(ideal) * D
            if not (sums == expected).all():
                c = int(np.flatnonzero(sums != expected)[0])
                raise IdentityCheckError(
                    f"coset sum over a {side} ideal misses the ideal size",
                    witness={"ring": ring.spec.text(), "side": side,
                             "ideal": ideal.tolist(), "shift": c,
                             "sum_numerator": int(sums[c]),
                             "expected_numerator": expected})


def _fixing_unit_count(ring, ideal):
    """|{u a unit : xu = x for all x in the ideal}|."""
    fixed = ring.mul_table[np.ix_(ideal, ring.units_array)] == ideal[:, None]
    return int(fixed.all(axis=0).sum())


def correlation_ideal_rhs(ring, ideal, r, s, table=None):
    """Predicted value of sum over x in the ideal of w(x) w(xr + s).

    Three regimes: xr injective on the ideal; image a nonzero proper
    quotient; image zero.  The middle regime predicts the plain ideal
    size, the last collapses to |I| * w(s) because every summand has
    xr = 0.
    """
    table = table if table is not None else weight_table(ring)
    size = len(ideal)
    image = np.unique(ring.mul_table[ideal, r])
    if len(image) == size:
        cnt = _fixing_unit_count(ring, ideal)
        ws = table.value(s)
        return size + Fraction(size * cnt, table.denominator) * (1 - ws)
    if len(image) > 1:
        return Fraction(size)
    return size * table.value(s)


def correlation_ideal_lhs(ring, ideal, r, s, table=None):
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    shifted = num[ring.add_table[ring.mul_table[ideal, r], s]]
    total = int(num[ideal].astype(object) @ shifted.astype(object))
    return Fraction(total, table.denominator ** 2)


def check_correlation_ideal(ring, table=None, ideals=None):
    """Exhaustive sweep of the ideal correlation identity over all
    nonzero left ideals and all pairs (r, s)."""
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    D = table.denominator
    order = ring.order
    if ideals is None:
        ideals = all_one_sided_ideals(ring, "left")
    for ideal in ideals:
        size = len(ideal)
        cnt = _fixing_unit_count(ring, ideal)
        wi = num[ideal].astype(np.int64)
        for r in range(order):
            img_rows = ring.mul_table[ideal, r]
            image_size = len(np.unique(img_rows))
            # lhs(s) * D^2 for all s at once
            lhs = wi @ num[ring.add_table[img_rows, :]]
            if image_size == size:
                rhs = size * D * D + size * cnt * (D - num)
            elif image_size > 1:
                rhs = np.full(order, size * D * D, dtype=np.int64)
            else:
                rhs = size * num * D
            if not (lhs == rhs).all():
                s = int(np.flatnonzero(lhs != rhs)[0])
                raise IdentityCheckError(
                    "ideal correlation identity fails",
                    witness={"ring": ring.spec.text(),
                             "ideal": ideal.tolist(), "r": r, "s": s,
                             "lhs": str(Fraction(int(lhs[s]), D * D)),
                             "rhs": str(Fraction(int(rhs[s]), D * D))})


def sum_of_squares_check(ring, table=None):
    """Sum of w(x)^2 over the ring equals |R| (1 + 1/|units|)."""
    table = table if table is not None else weight_table(ring)
    num = table.numerators.astype(object)
    D = table.denominator
    lhs = Fraction(int(num @ num), D * D)
    rhs = ring.order * (1 + Fraction(1, D))
    if lhs != rhs:
        raise IdentityCheckError(
            "sum of squared weights misses |R|(1 + 1/|units|)",
            witness={"ring": ring.spec.text(), "lhs": str(lhs),
                     "rhs": str(rhs)})
    return lhs


def _dot_table(ring, k, cap=None):
    """T[x, g] = x . g for all x, g in R^k (index by encoded vector)."""
    vecs = enumerate_vectors(ring.order, k, cap)
    count = len(vecs)
    T = ring.mul_table[vecs[:, 0][:, None], vecs[None, :, 0]]
    for i in range(1, k):
        term = ring.mul_table[vecs[:, i][:, None], vecs[None, :, i]]
        T = ring.add_table[T, term]
    return vecs, T.astype(np.int64)


def correlation_vectors_rhs(ring, g, h, s, k=None, table=None):
    """Predicted sum over x in R^k of w(x.g) w(x.h + s): the words g, h
    either share a right unit orbit (extra term scaled by the orbit
    size) or do not (flat |R|^k)."""
    table = table if table is not None else weight_table(ring)
    k = len(g) if k is None else k
    total = ring.order ** k
    pids, sizes = point_ids(ring, [g, h])
    if pids[0] != pids[1]:
        return Fraction(total)
    return total + Fraction(total, int(sizes[0])) * (1 - table.value(s))


def check_correlation_vectors(ring, k, table=None, cap=None):
    """Exhaustive sweep of the word correlation identity over all
    nonzero g, h in R^k and every shift s."""
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    D = table.denominator
    order = ring.order
    total = order ** k
    vecs, T = _dot_table(ring, k, cap)
    pids, sizes = point_ids(ring, vecs)
    W = num[T].astype(np.float64)
    nz = slice(1, None)
    max_num = int(num.max())
    if total * max_num * max_num * int(sizes.max()) >= (1 << 53):
        raise CapExceededError(
            "word correlation sweep would overflow exact float64 range")
    same = pids[nz, None] == pids[None, nz]
    m = sizes[nz]
    base = np.int64(total) * D * D
    for s in range(order):
        Ws = num[ring.add_table[T, s]].astype(np.float64)
        L = (W[:, nz].T @ Ws[:, nz]).astype(np.int64)
        rhs = np.where(
            same,
            m[:, None] * base + total * D * np.int64(D - num[s]),
            m[:, None] * base)
        lhs = m[:, None] * L
        if not (lhs == rhs).all():
            gi, hi = np.argwhere(lhs != rhs)[0]
            raise IdentityCheckError(
                "word correlation identity fails",
                witness={"ring": ring.spec.text(), "k": k,
                         "g": vecs[1 + gi].tolist(),
                         "h": vecs[1 + hi].tolist(), "s": s,
                         "lhs": str(Fraction(int(L[gi, hi]), D * D)),
                         "similar": bool(same[gi, hi])})


def correlation_vectors_lhs(ring, g, h, s, table=None):
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    k = len(g)
    vecs = enumerate_vectors(ring.order, k)
    from .spans import combine_rows

    xg = combine_rows(ring, np.asarray([g], dtype=np.int32).T.reshape(k, 1),
                      vecs)[:, 0]
    xh = combine_rows(ring, np.asarray([h], dtype=np.int32).T.reshape(k, 1),
                      vecs)[:, 0]
    shifted = num[ring.add_table[xh, s]].astype(object)
    total = int(num[xg].astype(object) @ shifted)
    return Fraction(total, table.denominator ** 2)


IDENTITY_CHECKS = (
    ("zero-set", check_zero_set),
    ("unit-invariance", check_unit_invariance),
    ("coset-sums", check_coset_sums),
    ("ideal-correlation", check_correlation_ideal),
    ("sum-of-squares", sum_of_squares_check),
)


def run_identity_suite(ring, k_max=2, table=None, cap=None):
    """Run every weight identity check; returns the list of check names
    executed.  Raises IdentityCheckError on the first failure."""
    table = table if table is not None else weight_table(ring)
    executed = []
    for name, fn in IDENTITY_CHECKS:
        fn(ring, table)
        executed.append(name)
    for k in range(1, k_max + 1):
        check_correlation_vectors(ring, k, table, cap)
        executed.append(f"word-correlation-k{k}")
    return executed
