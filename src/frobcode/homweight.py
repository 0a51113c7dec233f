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
from fractions import Fraction

import numpy as np

from .cyclotomic import constant_remainder, cyclotomic
from .errors import CapExceededError, CharacterError, IdentityCheckError
from .rings import order2_socle_part
from .spans import (BLOCK_ENTRIES, combine_rows, encode_vectors, enum_cap,
                    enumerate_vectors, point_ids)

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


def _class_least(order, members):
    """The least member of the class of each x in range(order), for a
    partition of range(order); members(x) gives the class of x."""
    least = np.full(order, -1)
    for x in range(order):
        if least[x] < 0:
            least[members(x)] = x
    return least


def _class_minima(order, members):
    """The least member of each class of a partition of range(order),
    ascending; members(x) gives the class of x."""
    return np.flatnonzero(_class_least(order, members) == np.arange(order))


def _unit_orbit_minima(ring, side):
    """The least member of each orbit {ux} (side "left") or {xu} (side
    "right") of the unit group, ascending."""
    units = ring.units_array
    if side == "left":
        return _class_minima(ring.order, lambda x: ring.mul_table[units, x])
    return _class_minima(ring.order, lambda x: ring.mul_table[x, units])


def all_one_sided_ideals(ring, side="left"):
    """Every nonzero left (or right) ideal, as sorted element-index
    arrays ordered by size, then elements.  Built by closing the
    principal ideals under pairwise ideal sums.  A principal ideal
    depends only on the unit orbit of its generator (R ux = Rx,
    xuR = xR), so one is built per orbit; each pair of distinct ideals
    is summed once."""
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
                s = np.unique(ring.add_table[np.ix_(a, b)])
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


def _orbit_count(ring, units, k):
    """The number of orbits {vu : u in units} of R^k, for a group of
    units: by Burnside's lemma, the mean over u of the words that u
    fixes, (|{x : xu = x}|)^k of them."""
    fixed = (ring.mul_table[:, units] == np.arange(ring.order)[:, None]).sum(
        axis=0)
    return sum(int(f) ** k for f in fixed) // len(units)


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


def correlation_vectors_lhs(ring, table, wg, xh, s):
    """sum over x in R^k of w(x.g) w(x.h + s), as numerators over D^2,
    for stacks of word pairs: wg[..., i, x] is the numerator of
    w(x.g_i) and xh[..., x, j] the element x.h_j, for every x.  One
    matrix product per stack entry, in the dtype of wg; the callers
    bound its sums to where that dtype is exact."""
    ws = table.numerators[ring.add_table[xh, s]]
    return np.matmul(wg, ws.astype(wg.dtype)).astype(np.int64)


def correlation_vectors(ring, table, wg, xh, s, same, m):
    """Both sides of the word correlation identity

        sum over x in R^k of w(x.g) w(x.h + s)
            = |R|^k + [g ~ h] (|R|^k / m) (1 - w(s)),

    where g ~ h when g and h lie on one point, a right unit orbit of m
    words, for the word pairs of correlation_vectors_lhs; s, same and
    m broadcast against its result.  Returns lhs and rhs as int64
    numerators over m D^2, and those denominators."""
    D = table.denominator
    total = wg.shape[-1]
    lhs = m * correlation_vectors_lhs(ring, table, wg, xh, s)
    rhs = m * (total * D * D) + same * (
        total * D * (D - table.numerators[s]))
    return lhs, rhs, np.broadcast_to(m * (D * D), lhs.shape)


def check_correlation_vectors(ring, k, table=None, cap=None):
    """Exhaustive sweep of the word correlation identity over nonzero
    g, h in R^k and every shift s: one float64 matrix product per
    shift, exact below 2^53.

    For units u and v, lhs(gu, h, s) = lhs(g, h, s) and lhs(g, hv, s) =
    lhs(g, h, sv^-1) when w is right-unit invariant (the right half of
    check_unit_invariance), and the rhs moves with them; so on such a
    table g and h run over the least member of each right unit orbit
    of R^k only, and on any other table over every nonzero vector.
    With P of them, counted by _orbit_count, the sweep takes
    order P^2 order^k multiply-adds; past cap^2 it raises
    CapExceededError before it builds anything order^k x P.  A failure reports the least failing (s, g, h) of the
    unreduced sweep, by shift and then by key: s = tv, g the
    representative and h = h'v of a failing representative triple
    (g, h', t)."""
    table = table if table is not None else weight_table(ring)
    cap = enum_cap() if cap is None else cap
    order = ring.order
    num = table.numerators
    vecs = enumerate_vectors(order, k, cap)
    invariant = _right_unit_invariant(ring, table)
    units = ring.units_array if invariant else np.array([ring.one])
    width = _orbit_count(ring, units, k) - 1
    work = order * width ** 2 * len(vecs)
    if work > cap * cap:
        raise CapExceededError(
            f"word correlation sweep over {order}**{k} vectors takes "
            f"{work} multiply-adds, past cap**2 = {cap * cap}; "
            f"--cap {len(vecs) - 1} selects the sampled sweep")
    pids, sizes = point_ids(ring, vecs[1:])
    cols = np.arange(1, len(vecs))
    if invariant:
        cols = cols[pids == cols]
    max_num = int(num.max())
    if len(vecs) * max_num * max_num * int(sizes.max()) >= (1 << 53):
        raise CapExceededError(
            "word correlation sweep would overflow exact float64 range")
    dots = combine_rows(ring, vecs[cols].T, vecs)
    wg = num[dots.T].astype(np.float64)
    pids, sizes = pids[cols - 1], sizes[cols - 1]
    same = pids[:, None] == pids[None, :]
    m = sizes[:, None]
    # a failure at shift t stands for failures at the shifts tv, the
    # least of which is lowest[t]: shifts are taken in that order, up
    # to the first failure's lowest[t]
    lowest = _class_least(order, lambda t: ring.mul_table[t, units])
    best = None
    for t in np.argsort(lowest, kind="stable"):
        if best is not None and lowest[t] > best[0]:
            break
        lhs, rhs, den = correlation_vectors(ring, table, wg, dots, t, same,
                                            m)
        bad = lhs != rhs
        if not bad.any():
            continue
        gi = int(np.flatnonzero(bad.any(axis=1))[0])
        his = np.flatnonzero(bad[gi])
        vs = units[ring.mul_table[t, units] == lowest[t]]
        moved = ring.mul_table[vecs[cols[his]][:, None, :],
                               vs[None, :, None]]
        keys = encode_vectors(moved, order)
        at = np.unravel_index(np.argmin(keys), keys.shape)
        found = (int(lowest[t]), int(cols[gi]), int(keys[at]))
        if best is None or found < best:
            hi = his[at[0]]
            best = found
            witness = {"ring": ring.spec.text(), "k": k,
                       "g": vecs[cols[gi]].tolist(),
                       "h": moved[at].tolist(), "s": found[0],
                       "lhs": str(Fraction(int(lhs[gi, hi]),
                                           int(den[gi, hi]))),
                       "similar": bool(same[gi, hi])}
    if best is not None:
        raise IdentityCheckError("word correlation identity fails",
                                 witness=witness)


def _sampled_correlation_vectors(ring, k, table, sample, seed):
    """The word correlation identity at `sample` draws (g, h, s) from
    default_rng(seed); a draw with g or h zero takes no s and is
    skipped.  R^k is enumerated once, under the default cap, and the
    draws are summed in int64 in blocks of at most BLOCK_ENTRIES words
    x."""
    order = ring.order
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(sample):
        g = rng.integers(0, order, size=k)
        h = rng.integers(0, order, size=k)
        if g.any() and h.any():
            draws.append((g, h, int(rng.integers(0, order))))
    if not draws:
        return
    g, h, s = (np.array(part) for part in zip(*draws))
    vecs = enumerate_vectors(order, k)
    num = table.numerators
    pg, mg = point_ids(ring, g)
    ph, _ = point_ids(ring, h)
    big = max(int(np.abs(num).max()), table.denominator)
    if len(vecs) * big * big * (int(mg.max()) + 2) >= (1 << 63):
        raise CapExceededError(
            "sampled word correlation would overflow int64")
    block = max(1, BLOCK_ENTRIES // len(vecs))
    for start in range(0, len(s), block):
        part = slice(start, start + block)
        xg = combine_rows(ring, g[part].T, vecs)
        xh = combine_rows(ring, h[part].T, vecs)
        lhs, rhs, den = correlation_vectors(
            ring, table, num[xg.T][:, None, :], xh.T[:, :, None],
            s[part, None, None], (pg == ph)[part, None, None],
            mg[part, None, None])
        lhs, rhs, den = lhs.ravel(), rhs.ravel(), den.ravel()
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            j = bad[0]
            i = start + j
            raise IdentityCheckError(
                "word correlation identity fails",
                witness={"g": g[i].tolist(), "h": h[i].tolist(),
                         "s": int(s[i]),
                         "lhs": str(Fraction(int(lhs[j]), int(den[j]))),
                         "rhs": str(Fraction(int(rhs[j]), int(den[j])))})


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


def identity_suite(ring, table=None, checks=None, k_max=2, cap=None,
                   full=False, sample=SAMPLE_COUNT, seed=0):
    """Run the weight identity checks in order, yielding (name, status)
    as each one passes; raises IdentityCheckError at the first failure.

    The checks are `checks` (default IDENTITY_CHECKS), then the word
    correlation identity for k = 1 .. k_max: exhaustive when R^k is
    within the cap, otherwise at `sample` draws from
    default_rng(seed), which its status names.  With `full` the
    CapExceededError of enumerating R^k propagates instead.  An
    exhaustive sweep past its own work bound raises CapExceededError
    either way."""
    table = table if table is not None else weight_table(ring)
    for name, fn in IDENTITY_CHECKS if checks is None else checks:
        fn(ring, table)
        yield name, "pass"
    for k in range(1, k_max + 1):
        # only R^k past the cap falls back to sampling, not a sweep past
        # its work bound
        try:
            enumerate_vectors(ring.order, k, cap)
        except CapExceededError:
            if full:
                raise
            _sampled_correlation_vectors(ring, k, table, sample, seed)
            status = f"pass (sampled, n={sample}, seed={seed})"
        else:
            check_correlation_vectors(ring, k, table, cap)
            status = "pass"
        yield f"word-correlation-k{k}", status

