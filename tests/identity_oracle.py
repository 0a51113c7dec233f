"""Brute-force oracles for the weight identities.

Most functions read one identity's left-hand side straight from its
definition: a Python loop over the summands, ring arithmetic looked up
one entry at a time in the operation tables, and exact ``Fraction``
weights.  They are independent of the batched evaluators in
``frobcode.homweight`` and ``frobcode.codes``.

The unreduced sweeps below test the unit invariance at every unit,
enumerate every one-sided ideal from one principal ideal per element,
sum the coset sums at every shift, take the ideal correlation at every
multiplier r and shift s and the word correlation at every pair of
nonzero words: the work the orbit- and coset-reduced sweeps of
``frobcode.homweight`` skip.  ``correlation_vectors``, which
that word sweep and the tests call, evaluates the word correlation
identity on whole stacks of words, independently of the weighted
addition table through which ``homweight.correlation_vectors_lhs``
sums the sampled draws.  All of them serve only as checks on small
rings and codes.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from frobcode.errors import CapExceededError, IdentityCheckError
from frobcode.homweight import WeightTable, _fixing_unit_count, \
    ideal_correlation, weight_table
from frobcode.spans import combine_rows, enumerate_vectors, point_ids
from span_oracle import code_words


def _w(table, x):
    return Fraction(int(table.numerators[x]), table.denominator)


def _dot(ring, x, g):
    acc = 0
    for xi, gi in zip(x, g):
        acc = int(ring.add_table[acc, ring.mul_table[xi, gi]])
    return acc


def _word_weight(table, word):
    return sum((_w(table, int(c)) for c in word), Fraction(0))


def _shifted(ring, word, d):
    return [int(ring.add_table[c, e]) for c, e in zip(word, d)]


def ideal_correlation_lhs(ring, table, ideal, r, s):
    """sum over x in I of w(x) w(xr + s)."""
    return sum((_w(table, int(x))
                * _w(table, int(ring.add_table[ring.mul_table[x, r], s]))
                for x in ideal), Fraction(0))


def word_correlation_lhs(ring, table, g, h, s):
    """sum over x in R^k of w(x.g) w(x.h + s)."""
    return sum((_w(table, _dot(ring, x, g))
                * _w(table, int(ring.add_table[_dot(ring, x, h), s]))
                for x in product(range(ring.order), repeat=len(g))),
               Fraction(0))


def code_correlation_lhs(code, d):
    """sum over codewords c of w(c) w(c + d)."""
    table = code.table
    return sum((_word_weight(table, c)
                * _word_weight(table, _shifted(code.ring, c, d))
                for c in code_words(code).tolist()), Fraction(0))


def class_coset_sum_lhs(code, weight, d):
    """sum of w(c + d) over the codewords c of the given weight."""
    table = code.table
    return sum((_word_weight(table, _shifted(code.ring, c, d))
                for c in code_words(code).tolist()
                if _word_weight(table, c) == weight), Fraction(0))


def coordinate_correlation_lhs(code, j, dj):
    """sum over codewords c of w(c) w(c_j + d_j)."""
    table = code.table
    return sum((_word_weight(table, c)
                * _w(table, int(code.ring.add_table[c[j], dj]))
                for c in code_words(code).tolist()), Fraction(0))


def coordinate_class_sum_lhs(code, weight, j, dj):
    """sum of w(c_j + d_j) over the codewords c of the given weight."""
    table = code.table
    return sum((_w(table, int(code.ring.add_table[c[j], dj]))
                for c in code_words(code).tolist()
                if _word_weight(table, c) == weight), Fraction(0))


def correlation_vectors(ring, table, wg, xh, s, same, m):
    """Both sides of the word correlation identity

        sum over x in R^k of w(x.g) w(x.h + s)
            = |R|^k + [g ~ h] (|R|^k / m) (1 - w(s)),

    where g ~ h when g and h lie on one point, a right unit orbit of m
    words, for stacks of word pairs: wg[..., i, x] is the numerator of
    w(x.g_i) and xh[..., x, j] the element x.h_j, for every x; s, same
    and m broadcast against the result.  One matrix product per stack
    entry, in the dtype of wg; the callers bound its sums to where that
    dtype is exact.  Returns lhs and rhs as int64 numerators over
    m D^2, and those denominators."""
    D = table.denominator
    total = wg.shape[-1]
    ws = table.numerators[ring.add_table[xh, s]]
    lhs = m * np.matmul(wg, ws.astype(wg.dtype)).astype(np.int64)
    rhs = m * (total * D * D) + same * (
        total * D * (D - table.numerators[s]))
    return lhs, rhs, np.broadcast_to(m * (D * D), lhs.shape)


def bump_unit_orbit(ring, table, x, delta):
    """A copy of the table with the weight of the whole two-sided unit
    orbit {u x v} of x moved by delta / |U|, so that it stays
    unit-invariant and passes check_unit_invariance."""
    units = ring.units_array
    orbit = np.unique(ring.mul_table[np.ix_(ring.mul_table[units, x],
                                            units)])
    numerators = table.numerators.copy()
    numerators[orbit] += delta
    return WeightTable(numerators, table.denominator)


def bump_one_sided_orbit(ring, table, x, delta, side):
    """A copy of the table with the weight of the left unit orbit {ux}
    (side "left") or the right one {xu} of x moved by delta / |U|; on a
    noncommutative ring it is then, in general, unit-invariant on that
    side only."""
    units = ring.units_array
    orbit = np.unique(ring.mul_table[units, x] if side == "left"
                      else ring.mul_table[x, units])
    numerators = table.numerators.copy()
    numerators[orbit] += delta
    return WeightTable(numerators, table.denominator)


def check_unit_invariance_every_unit(ring, table):
    """check_unit_invariance by gathering w(ux) and w(xu) for every unit
    u and element x, as two |U| x order arrays."""
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


def all_one_sided_ideals_every_element(ring, side="left"):
    """Every nonzero left (or right) ideal, sorted by size and then
    elements: the principal ideal of every element, closed under the sum
    of every pair."""
    found = {}
    for x in range(ring.order):
        ideal = np.unique(ring.mul_table[:, x] if side == "left"
                          else ring.mul_table[x, :])
        found.setdefault(ideal.tobytes(), ideal)
    frontier = list(found.values())
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(found.values()):
                s = np.unique(ring.add_table[np.ix_(a, b)])
                if s.tobytes() not in found:
                    found[s.tobytes()] = s
                    fresh.append(s)
        frontier = fresh
    ideals = sorted(found.values(), key=lambda v: (len(v), v.tolist()))
    return [i for i in ideals if len(i) > 1 or i[0] != 0]


def check_coset_sums_every_shift(ring, table):
    """check_coset_sums with the sum over each ideal taken at every
    shift c of the ring."""
    num = table.numerators
    D = table.denominator
    for side in ("left", "right"):
        for ideal in all_one_sided_ideals_every_element(ring, side):
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


def check_correlation_ideal_every_r(ring, table):
    """check_correlation_ideal with r and s over the whole ring, one r at
    a time."""
    shifts = np.arange(ring.order)
    for ideal in all_one_sided_ideals_every_element(ring, "left"):
        for r in range(ring.order):
            lhs, rhs, den = ideal_correlation(
                ring, table, ideal, np.array([r]), shifts,
                _fixing_unit_count(ring, ideal))
            bad = np.flatnonzero(lhs[0] != rhs[0])
            if len(bad):
                s = int(bad[0])
                raise IdentityCheckError(
                    "ideal correlation identity fails",
                    witness={"ring": ring.spec.text(),
                             "ideal": ideal.tolist(), "r": r, "s": s,
                             "lhs": str(Fraction(int(lhs[0, s]), den)),
                             "rhs": str(Fraction(int(rhs[0, s]), den))})


def check_correlation_vectors_every_pair(ring, k, table=None, cap=None):
    """check_correlation_vectors over all nonzero g, h in R^k and every
    shift s: one float64 matrix product per shift, exact below 2^53."""
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    vecs = enumerate_vectors(ring.order, k, cap)
    dots = combine_rows(ring, vecs.T, vecs)[:, 1:]
    pids, sizes = point_ids(ring, vecs[1:])
    max_num = int(num.max())
    if len(vecs) * max_num * max_num * int(sizes.max()) >= (1 << 53):
        raise CapExceededError(
            "word correlation sweep would overflow exact float64 range")
    wg = num[dots.T].astype(np.float64)
    same = pids[:, None] == pids[None, :]
    m = sizes[:, None]
    for s in range(ring.order):
        lhs, rhs, den = correlation_vectors(ring, table, wg, dots, s, same,
                                            m)
        if not (lhs == rhs).all():
            gi, hi = np.argwhere(lhs != rhs)[0]
            raise IdentityCheckError(
                "word correlation identity fails",
                witness={"ring": ring.spec.text(), "k": k,
                         "g": vecs[1 + gi].tolist(),
                         "h": vecs[1 + hi].tolist(), "s": s,
                         "lhs": str(Fraction(int(lhs[gi, hi]),
                                             int(den[gi, hi]))),
                         "similar": bool(same[gi, hi])})
