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

The word correlation identity over R^k needs no sweep of its own: it
follows from the coset sums and the ideal correlation identity (see
check_correlation_vectors).  Only past the cap does identity_suite
sample it.  correlation_vectors_lhs sums each draw over R^k through
the weighted addition table w(a + b), whose order^2 entries are at
most those of R^k, so of a draw's words x g and x h + s it forms only
the prefixes over the first k - 1 coordinates.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

import numpy as np

from .cyclotomic import constant_remainder, cyclotomic
from .errors import CapExceededError, CharacterError, IdentityCheckError
from .rings import ELEMENT_DTYPE, order2_socle_part
from .spans import (BLOCK_ENTRIES, enum_cap, enumeration_size,
                    message_words, point_ids)

_IDEAL_COUNT_CAP = 4096


class WeightTable:
    """Homogeneous weights of one ring as numerators over a common
    denominator (the unit group size).  The table holds its ring
    weakly, so that weight_table's cache, keyed weakly by the ring,
    lets the ring go."""

    def __init__(self, ring, numerators, denominator):
        self._ring = weakref.ref(ring)
        self.numerators = np.ascontiguousarray(numerators, dtype=np.int64)
        self.denominator = int(denominator)

    @property
    def ring(self):
        return self._ring()

    def value(self, x):
        return Fraction(int(self.numerators[x]), self.denominator)

    def word_numerator(self, words):
        words = np.asarray(words)
        return self.numerators[words].sum(axis=-1)

    def zero_set(self):
        return frozenset(int(x) for x in np.flatnonzero(self.numerators == 0))

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


# ---------------------------------------------------- ideal enumeration


def principal_ideal_elements(ring, x, side="left"):
    if side == "left":
        return np.unique(ring.mul_table[:, x])
    if side == "right":
        return np.unique(ring.mul_table[x, :])
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _class_minima(order, members):
    """The least member of each class of a partition of range(order),
    ascending; members(x) gives the class of x."""
    least = np.full(order, -1)
    for x in range(order):
        if least[x] < 0:
            least[members(x)] = x
    return np.flatnonzero(least == np.arange(order))


def _unit_orbit_minima(ring, side):
    """The least member of each orbit {ux} (side "left") or {xu} (side
    "right") of the unit group, ascending."""
    units = ring.units_array
    if side == "left":
        return _class_minima(ring.order, lambda x: ring.mul_table[units, x])
    return _class_minima(ring.order, lambda x: ring.mul_table[x, units])


def _ideal_sum(add, a, b):
    """The ideal a + b in a's dtype, grown from a as
    rings._additive_generators grows a group from its generators g, the
    least elements of b not yet reached."""
    reached = np.zeros(len(add), dtype=bool)
    reached[a] = True
    while not (held := reached[b]).all():
        fresh = np.flatnonzero(reached)
        while len(fresh):
            fresh = add[fresh, b[np.argmin(held)]]
            fresh = fresh[~reached[fresh]]
            reached[fresh] = True
    return np.flatnonzero(reached).astype(a.dtype)


_ideal_cache = weakref.WeakKeyDictionary()


def all_one_sided_ideals(ring, side="left"):
    """Every nonzero left (or right) ideal, as sorted element-index
    arrays ordered by size, then elements.  They are built once per
    ring and side, by _one_sided_ideals, and kept as read-only arrays
    for the life of the ring, as weight_table keeps its table."""
    cached = _ideal_cache.setdefault(ring, {})
    if side not in cached:
        ideals = _one_sided_ideals(ring, side)
        for ideal in ideals:
            ideal.flags.writeable = False
        cached[side] = ideals
    return list(cached[side])


def _one_sided_ideals(ring, side):
    """all_one_sided_ideals, built by closing the principal ideals under
    pairwise ideal sums.  A principal ideal depends only on the unit
    orbit of its generator (R ux = Rx, xuR = xR), so one is built per
    orbit; each pair of distinct ideals is summed once, by _ideal_sum."""
    found = {}
    for x in _unit_orbit_minima(ring, side):
        ideal = principal_ideal_elements(ring, x, side)
        found.setdefault(ideal.tobytes(), ideal)
    frontier = list(found)
    while frontier:
        if len(found) > _IDEAL_COUNT_CAP:
            raise CapExceededError(
                f"more than {_IDEAL_COUNT_CAP} one-sided ideals")
        fresh = []
        summed = set()
        for a_key in frontier:
            a = found[a_key]
            summed.add(a_key)
            for b_key, b in list(found.items()):
                if b_key in summed:
                    continue
                s = _ideal_sum(ring.add_table, a, b)
                key = s.tobytes()
                if key not in found:
                    found[key] = s
                    fresh.append(key)
        frontier = fresh
    ideals = sorted(found.values(), key=lambda v: (len(v), v.tolist()))
    return [i for i in ideals if len(i) > 1 or i[0] != 0]


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
    ideal size, for every shift c.  The sum depends only on the coset
    c + I, so it is taken once per coset, at its least member; the
    first failing shift is then the least one."""
    table = table if table is not None else weight_table(ring)
    num = table.numerators
    D = table.denominator
    for side in ("left", "right"):
        for ideal in all_one_sided_ideals(ring, side):
            shifts = _class_minima(ring.order,
                                   lambda c: ring.add_table[c, ideal])
            sums = num[ring.add_table[np.ix_(shifts, ideal)]].sum(axis=1)
            expected = len(ideal) * D
            if not (sums == expected).all():
                at = int(np.flatnonzero(sums != expected)[0])
                raise IdentityCheckError(
                    f"coset sum over a {side} ideal misses the ideal size",
                    witness={"ring": ring.spec.text(), "side": side,
                             "ideal": ideal.tolist(),
                             "shift": int(shifts[at]),
                             "sum_numerator": int(sums[at]),
                             "expected_numerator": expected})


def _right_unit_invariant(ring, table):
    """True iff w(xu) = w(x) for every element x and unit u."""
    num = table.numerators
    return bool((num[ring.mul_table[:, ring.units_array]]
                 == num[:, None]).all())


def _fixing_unit_count(ring, ideal):
    """|{u a unit : xu = x for all x in the ideal}|."""
    fixed = ring.mul_table[np.ix_(ideal, ring.units_array)] == ideal[:, None]
    return int(fixed.all(axis=0).sum())


def ideal_correlation(ring, table, ideal, rs, fixing):
    """Both sides of the ideal correlation identity of a left ideal I,
    for each r in rs and every shift s:

        sum over x in I of w(x) w(xr + s)
            = |I| + (|I| c / |U|) (1 - w(s))   if x -> xr is injective on I,
            = |I|                              if Ir is nonzero otherwise,
            = |I| w(s)                         if Ir = 0,

    with c = fixing, the number of units u that fix I pointwise (xu = x;
    see _fixing_unit_count).  Returns lhs and rhs as (len(rs), order)
    int64 numerators over D^2, D = |U|, and that denominator."""
    num = table.numerators
    D = table.denominator
    size = len(ideal)
    images = ring.mul_table[np.ix_(ideal, rs)]
    lhs = num[ideal] @ num[ring.add_table[images.T, :]]
    image_sizes = 1 + (np.diff(np.sort(images, axis=0), axis=0) != 0).sum(
        axis=0)[:, None]
    flat = size * D * D
    rhs = np.where(
        image_sizes == size,
        flat + size * fixing * (D - num),
        np.where(image_sizes > 1, flat, size * D * num))
    return lhs, rhs, D * D


def check_correlation_ideal(ring, table=None):
    """Exhaustive sweep of the ideal correlation identity over all
    nonzero left ideals and all pairs (r, s), with r taken in blocks
    of at most BLOCK_ENTRIES summands.  For a unit u, lhs(I, ru, s) =
    lhs(I, r, su^-1) when w is right-unit invariant (the right half of
    check_unit_invariance), and the rhs moves with it; so on such a
    table r runs over the least member of each right unit orbit {ru}
    only, and on any other table over every element."""
    table = table if table is not None else weight_table(ring)
    order = ring.order
    if _right_unit_invariant(ring, table):
        multipliers = _unit_orbit_minima(ring, "right")
    else:
        multipliers = np.arange(order)
    for ideal in all_one_sided_ideals(ring, "left"):
        fixing = _fixing_unit_count(ring, ideal)
        block = max(1, BLOCK_ENTRIES // (len(ideal) * order))
        for start in range(0, len(multipliers), block):
            rs = multipliers[start:start + block]
            lhs, rhs, den = ideal_correlation(ring, table, ideal, rs, fixing)
            bad = np.argwhere(lhs != rhs)
            if len(bad):
                i, s = bad[0]
                raise IdentityCheckError(
                    "ideal correlation identity fails",
                    witness={"ring": ring.spec.text(),
                             "ideal": ideal.tolist(), "r": int(rs[i]),
                             "s": int(s),
                             "lhs": str(Fraction(int(lhs[i, s]), den)),
                             "rhs": str(Fraction(int(rhs[i, s]), den))})


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


def correlation_vectors_lhs(ring, num, weighted, g, h, s, work):
    """sum over x in R^k of w(x.g) w(x.h + s), as int64 numerators over
    D^2, for each draw d: the words g[d] and h[d] of k entries and the
    shift s[d], with num the weight numerators.  For k = 1, weighted is
    None and the weights are gathered from num.  For k >= 2, weighted
    is the flat weighted addition table, num[a + b] at a * order + b.
    Writing x = (x', x_k), x.g = x'.g' + x_k g_k, so w(x.g) is weighted
    at (x'.g') * order + x_k g_k, with the prefixes x'.g' taken from
    spans.message_words over the first k - 1 coordinates; on the h side
    the shift s is added to the prefix x'.h'.  work is an int64 array of
    three rows of at least len(s) * order^k entries, which take the
    indices and the weights of both words, so that the blocks of one
    check share one allocation.  The caller bounds the sums below
    2^63."""
    index, wg, wh = (row[:len(s) * ring.order ** g.shape[1]].reshape(
        len(s), -1) for row in work)
    _word_weights(ring, num, weighted, g, None, index, wg)
    _word_weights(ring, num, weighted, h, s, index, wh)
    return np.einsum("dx,dx->d", wg, wh)


def _word_weights(ring, num, weighted, words, shift, index, out):
    """out[d, x] = w(x.words[d] + shift[d]) for every x in R^k, in the
    key order of x, as correlation_vectors_lhs describes; no shift when
    shift is None.  index is scratch of out's shape.  take writes into
    out directly in mode "clip" (mode "raise" goes through a buffer),
    and every index is in range."""
    mul, add = ring.mul_table, ring.add_table
    last = mul[:, words[:, -1]].T
    if weighted is None:
        np.copyto(index, last if shift is None
                  else add[last, shift[:, None]])
        num.take(index, out=out, mode="clip")
        return
    prefix = message_words(ring, words[:, :-1].T)
    if shift is not None:
        prefix = add[prefix, shift]
    np.add(prefix.T.astype(np.int64)[:, :, None] * ring.order,
           last[:, None, :], out=index.reshape(len(words), -1, ring.order))
    weighted.take(index, out=out, mode="clip")


def check_correlation_vectors(ring, table=None):
    """The word correlation identity of _sampled_correlation_vectors,
    for every k, nonzero g, h in R^k and shift s, derived from
    check_coset_sums and check_correlation_ideal, whose errors it
    raises.

    Every fibre of x -> (x.g, x.h) has |R|^k / |M| elements, M its
    image, so the left side is |R|^k / |M| times the sum over (a, b) in
    M of w(a) w(b + s).  Let A = {x.g : x.h = 0} and B = {x.h : x.g = 0},
    left ideals.
    - If A != 0, the a over each b form a coset of A, summing to |A|,
      and the b form the left ideal {x.h}, whose shifted sum is its
      size: the left side is |R|^k, and g !~ h (h = gu gives A = 0).
    - If B != 0, the same holds with g and h swapped.
    - If A = B = 0, x.g -> x.h is an isomorphism of left ideals, on a
      Frobenius ring right multiplication by a unit u (Wood's extension
      theorem), so h = gu, and the identity is |R|^k / |I| times the
      ideal correlation identity of I = {x.g} at r = u: g's orbit has
      m = |U| / c words, c the units fixing I pointwise."""
    check_coset_sums(ring, table)
    check_correlation_ideal(ring, table)


def _sampled_correlation_vectors(ring, k, table, sample, seed):
    """The word correlation identity

        sum over x in R^k of w(x.g) w(x.h + s)
            = |R|^k + [g ~ h] (|R|^k / m) (1 - w(s)),

    where g ~ h when g and h lie on one point, a right unit orbit of m
    words, at `sample` draws (g, h, s) from default_rng(seed); a draw
    with g or h zero takes no s and is skipped.  R^k must be within the
    default cap, and so must the number of draws, which are written
    into arrays of `sample` rows allocated up front.  R^k is never
    formed: correlation_vectors_lhs sums the draws in int64, in blocks
    of at most BLOCK_ENTRIES entries (draw, x) over both words, which
    share one work array.  For k >= 2 it reads the weighted addition
    table, whose order^2 entries are at most those of R^k."""
    if sample > enum_cap():
        raise CapExceededError(
            f"{sample} sampled draws exceed cap {enum_cap()}")
    order = ring.order
    rng = np.random.default_rng(seed)
    g = np.empty((sample, k), dtype=ELEMENT_DTYPE)
    h = np.empty((sample, k), dtype=ELEMENT_DTYPE)
    s = np.empty(sample, dtype=ELEMENT_DTYPE)
    kept = 0
    for _ in range(sample):
        gi = rng.integers(0, order, size=k)
        hi = rng.integers(0, order, size=k)
        if any(gi) and any(hi):
            g[kept], h[kept], s[kept] = gi, hi, rng.integers(0, order)
            kept += 1
    if not kept:
        return
    g, h, s = g[:kept], h[:kept], s[:kept]
    total = enumeration_size(order, k)
    num = table.numerators
    D = table.denominator
    pg, mg = point_ids(ring, g)
    ph, _ = point_ids(ring, h)
    big = max(int(np.abs(num).max()), D)
    if total * big * big * (int(mg.max()) + 2) >= (1 << 63):
        raise CapExceededError(
            "sampled word correlation would overflow int64")
    weighted = num[ring.add_table].ravel() if k > 1 else None
    block = max(1, BLOCK_ENTRIES // (2 * total))
    work = np.empty((3, min(block, len(s)) * total), dtype=np.int64)
    for start in range(0, len(s), block):
        part = slice(start, start + block)
        m = mg[part]
        lhs = m * correlation_vectors_lhs(ring, num, weighted, g[part],
                                          h[part], s[part], work)
        rhs = m * (total * D * D) + (pg == ph)[part] * (
            total * D * (D - num[s[part]]))
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            j = bad[0]
            i = start + j
            den = int(m[j]) * D * D
            raise IdentityCheckError(
                "word correlation identity fails",
                witness={"g": g[i].tolist(), "h": h[i].tolist(),
                         "s": int(s[i]),
                         "lhs": str(Fraction(int(lhs[j]), den)),
                         "rhs": str(Fraction(int(rhs[j]), den))})


IDENTITY_CHECKS = (
    ("zero-set", check_zero_set),
    ("unit-invariance", check_unit_invariance),
    ("coset-sums", check_coset_sums),
    ("ideal-correlation", check_correlation_ideal),
    ("sum-of-squares", sum_of_squares_check),
)
# The cheap checks that `frobcode ring` runs.
RING_CHECKS = (IDENTITY_CHECKS[0], IDENTITY_CHECKS[2])

SAMPLE_COUNT = 200


def identity_suite(ring, table=None, cap=None, full=False,
                   sample=SAMPLE_COUNT, seed=0):
    """Run the weight identity checks in order, yielding (name, status)
    as each one passes; raises IdentityCheckError at the first failure.

    The checks are IDENTITY_CHECKS, then the word correlation identity
    for k = 1 and 2.  When R^k is within the cap it passes with no
    further work: its premises, the coset sums and the ideal correlation
    identity (see check_correlation_vectors), passed above on the same
    table.  Past the cap it is checked at `sample` draws from
    default_rng(seed), which its status names; with `full` the
    CapExceededError of enumerating R^k propagates instead."""
    table = table if table is not None else weight_table(ring)
    for name, fn in IDENTITY_CHECKS:
        fn(ring, table)
        yield name, "pass"
    for k in (1, 2):
        try:
            enumeration_size(ring.order, k, cap)
        except CapExceededError:
            if full:
                raise
            _sampled_correlation_vectors(ring, k, table, sample, seed)
            status = f"pass (sampled, n={sample}, seed={seed})"
        else:
            status = "pass"
        yield f"word-correlation-k{k}", status

