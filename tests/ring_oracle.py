"""Per-row ring-table builders and the cubic axiom check, kept as test
oracles.

The builders are the row-at-a-time constructions that `frobcode.rings`
used before its builders moved to blocked int32 passes built directly
in identity-pinned order.  They build int64 tables in the constructor's
natural order and then move the identity to index 1 with two full
re-index gathers.  `oracle_ring` runs them, recursively for the base
field and the product factors, and derives `neg_table`, `units_array`
(by `two_sided_units`, the rule "x y = 1 = y x for some y" on whole
tables) and commutativity the way `FiniteRing.__init__` did, so the
oracle shares no table code with the path it checks.  Primality and
irreducibility over F_p come from sympy.

`cubic_axiom_failures` is the per-element check of the ring laws on
every triple that `FiniteRing` ran before it proved them on an additive
generating set.

`pairwise_one_sided_ideals` is the ideal enumeration that
`homweight.all_one_sided_ideals` ran before it grew each ideal sum
I + J from I: every sum is the unique entries of the |I| x |J| table
of pairwise sums.
"""

import math
from types import SimpleNamespace

import numpy as np
import sympy

from frobcode.errors import ReduciblePolynomialError, RingConstructionError
from frobcode.homweight import (_minima, _unit_orbits,
                                principal_ideal_elements)
from frobcode.rings import GF, MatRing, Product, Zm


def oracle_ring(spec):
    """Tables, labels, character and derived arrays of the ring spec."""
    if isinstance(spec, Zm):
        labels, add, mul, exps, e, one, arrays = _realize_zm(spec)
    elif isinstance(spec, GF):
        labels, add, mul, exps, e, one, arrays = _realize_gf(spec)
    elif isinstance(spec, MatRing):
        labels, add, mul, exps, e, one, arrays, _ = _realize_mat(spec)
    elif isinstance(spec, Product):
        labels, add, mul, exps, e, one, arrays, _ = _realize_product(spec)
    else:
        raise TypeError(f"no oracle for {spec!r}")
    labels, add, mul, exps, arrays = _pin_identity(
        labels, add, mul, exps, one, arrays)
    add_table = np.ascontiguousarray(add, dtype=np.int32)
    mul_table = np.ascontiguousarray(mul, dtype=np.int32)
    neg_table = np.argmax(add_table == 0, axis=1).astype(np.int32)
    units_array = two_sided_units(mul_table)
    return SimpleNamespace(
        order=len(labels), labels=list(labels), add_table=add_table,
        mul_table=mul_table,
        char_exponents=np.ascontiguousarray(exps, dtype=np.int64),
        exponent=int(e), neg_table=neg_table, units_array=units_array,
        is_commutative=bool((mul_table == mul_table.T).all()),
        meta=arrays)


def two_sided_units(mul):
    """The x with x y = 1 = y x for some y, ascending as int32, from the
    whole order x order table of left inverses and its transpose."""
    left_inv = np.asarray(mul) == 1
    two_sided = left_inv & left_inv.T
    return np.flatnonzero(two_sided.any(axis=1)).astype(np.int32)


def sympy_irreducible(poly, p):
    """Whether the ascending coefficients poly are irreducible over F_p."""
    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(poly)), x, modulus=p).is_irreducible


def _pin_identity(labels, add, mul, exps, one_idx, arrays):
    """Reorder elements so the multiplicative identity sits at index 1."""
    n = len(labels)
    if one_idx == 1:
        return labels, add, mul, exps, arrays
    perm = np.array(
        [0, one_idx] + [i for i in range(n) if i not in (0, one_idx)],
        dtype=np.int64)
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    add2 = inv[add[np.ix_(perm, perm)]]
    mul2 = inv[mul[np.ix_(perm, perm)]]
    exps2 = np.asarray(exps)[perm]
    labels2 = [labels[i] for i in perm]
    arrays2 = {k: np.asarray(v)[perm] for k, v in arrays.items()}
    return labels2, add2, mul2, exps2, arrays2


def _realize_zm(spec):
    m = spec.m
    if m < 2:
        raise RingConstructionError("Z_m needs m >= 2")
    idx = np.arange(m, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % m
    mul = (idx[:, None] * idx[None, :]) % m
    labels = [str(i) for i in range(m)]
    return labels, add, mul, idx.copy(), m, 1, {}


def _realize_gf(spec):
    p, r = spec.p, spec.r
    if not sympy.isprime(p):
        raise RingConstructionError(f"{p} is not prime")
    if r < 1:
        raise RingConstructionError("extension degree must be >= 1")
    q = p ** r
    if r == 1:
        labels, add, mul, exps, _, one, _ = _realize_zm(Zm(p))
        return labels, add, mul, exps, p, one, {"digits": np.arange(p)[:, None]}

    poly = spec.resolved_poly()
    if len(poly) != r + 1 or poly[-1] != 1:
        raise RingConstructionError(
            f"modulus must be monic of degree {r} (got {poly})")
    if not sympy_irreducible(poly, p):
        raise ReduciblePolynomialError(
            f"{poly} is reducible over F_{p}")

    idx = np.arange(q, dtype=np.int64)
    digits = np.stack([(idx // p ** j) % p for j in range(r)], axis=1)

    add = np.zeros((q, q), dtype=np.int64)
    pows = np.array([p ** j for j in range(r)], dtype=np.int64)
    for a in range(q):
        add[a] = ((digits[a][None, :] + digits) % p) @ pows

    # x^t mod poly for t in [r, 2r-2], as digit rows
    red = []
    cur = [(-poly[j]) % p for j in range(r)]
    red.append(list(cur))
    for _ in range(r - 2):
        nxt = [0] + cur[:-1]
        carry = cur[-1]
        if carry:
            for j in range(r):
                nxt[j] = (nxt[j] + carry * red[0][j]) % p
        cur = nxt
        red.append(list(cur))

    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        da = digits[a]
        prod = np.zeros((q, 2 * r - 1), dtype=np.int64)
        for i in range(r):
            if da[i]:
                prod[:, i:i + r] += da[i] * digits
        for t in range(2 * r - 2, r - 1, -1):
            carry = prod[:, t]
            if carry.any():
                prod[:, :r] += carry[:, None] * np.array(red[t - r])[None, :]
                prod[:, t] = 0
        mul[a] = (prod[:, :r] % p) @ pows

    # trace to the prime subfield via Frobenius powers
    exps = np.zeros(q, dtype=np.int64)
    for a in range(q):
        acc = a
        y = a
        for _ in range(r - 1):
            y = _scalar_pow(mul, y, p)
            acc = int(add[acc, y])
        if acc >= p:
            raise RingConstructionError("trace left the prime subfield")
        exps[a] = acc
    return ([str(i) for i in range(q)], add, mul, exps, p, 1,
            {"digits": digits})


def _scalar_pow(mul, a, n):
    result = 1
    base = a
    while n:
        if n & 1:
            result = int(mul[result, base])
        n >>= 1
        base = int(mul[base, base])
    return result


def _realize_mat(spec):
    m = spec.m
    if m < 1:
        raise RingConstructionError("matrix size must be >= 1")
    base = oracle_ring(spec.base)
    q = base.order
    mm = m * m
    n = q ** mm
    idx = np.arange(n, dtype=np.int64)
    # row-major entries, first entry most significant
    entries = np.stack(
        [(idx // q ** (mm - 1 - t)) % q for t in range(mm)], axis=1
    ).astype(np.int32)
    radix = np.array([q ** (mm - 1 - t) for t in range(mm)], dtype=np.int64)

    badd, bmul = base.add_table, base.mul_table
    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        ea = entries[a]
        add[a] = badd[ea[None, :], entries].astype(np.int64) @ radix
        cols = np.empty((n, mm), dtype=np.int64)
        for i in range(m):
            for k in range(m):
                acc = bmul[ea[i * m + 0], entries[:, 0 * m + k]]
                for j in range(1, m):
                    acc = badd[acc, bmul[ea[i * m + j], entries[:, j * m + k]]]
                cols[:, i * m + k] = acc
        mul[a] = cols @ radix

    # character: base character of the matrix trace
    tr = entries[:, 0]
    for i in range(1, m):
        tr = badd[tr, entries[:, i * m + i]]
    exps = base.char_exponents[tr]

    def label_of(row):
        body = ";".join(
            " ".join(base.labels[row[i * m + j]] for j in range(m))
            for i in range(m))
        return f"[{body}]"

    labels = [label_of(entries[a]) for a in range(n)]
    one_entries = np.zeros(mm, dtype=np.int64)
    for i in range(m):
        one_entries[i * m + i] = 1
    one_idx = int(one_entries @ radix)
    meta = {"entries": entries}
    return labels, add, mul, exps, base.exponent, one_idx, meta, base


def _realize_product(spec):
    if not spec.factors:
        raise RingConstructionError("product needs at least one factor")
    factors = [oracle_ring(f) for f in spec.factors]
    orders = [f.order for f in factors]
    t = len(factors)
    n = 1
    for o in orders:
        n *= o
    radix = np.empty(t, dtype=np.int64)
    acc = 1
    for f in range(t - 1, -1, -1):
        radix[f] = acc
        acc *= orders[f]
    idx = np.arange(n, dtype=np.int64)
    comps = np.stack([(idx // radix[f]) % orders[f] for f in range(t)],
                     axis=1).astype(np.int32)

    add = np.zeros((n, n), dtype=np.int64)
    mul = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        ca = comps[a]
        sa = np.zeros(n, dtype=np.int64)
        sm = np.zeros(n, dtype=np.int64)
        for f in range(t):
            sa += factors[f].add_table[ca[f], comps[:, f]].astype(np.int64) * radix[f]
            sm += factors[f].mul_table[ca[f], comps[:, f]].astype(np.int64) * radix[f]
        add[a] = sa
        mul[a] = sm

    e = 1
    for f in factors:
        e = math.lcm(e, f.exponent)
    exps = np.zeros(n, dtype=np.int64)
    for f in range(t):
        exps += factors[f].char_exponents[comps[:, f]] * (e // factors[f].exponent)
    exps %= e

    labels = [
        "(" + ",".join(factors[f].labels[comps[a, f]] for f in range(t)) + ")"
        for a in range(n)
    ]
    one_idx = int(np.array([1] * t, dtype=np.int64) @ radix)
    meta = {"components": comps}
    return labels, add, mul, exps, e, one_idx, meta, factors


def cubic_axiom_failures(add, mul):
    """The ring laws that fail on some triple, by the per-element check
    of every triple: a subset of "addition not associative",
    "multiplication not associative", "left distributivity fails" and
    "right distributivity fails"."""
    failed = set()
    for a in range(len(add)):
        add_a = add[a]
        mul_a = mul[a]
        if not (add[add_a] == np.take(add_a, add)).all():
            failed.add("addition not associative")
        if not (mul[mul_a] == np.take(mul_a, mul)).all():
            failed.add("multiplication not associative")
        # a(b+c) == ab + ac; add[x][:, x][b, c] is add[x[b], x[c]]
        if not (np.take(mul_a, add)
                == np.take(add[mul_a], mul_a, axis=1)).all():
            failed.add("left distributivity fails")
        # (b+c)a == ba + ca
        col = mul[:, a]
        if not (np.take(col, add) == np.take(add[col], col, axis=1)).all():
            failed.add("right distributivity fails")
    return failed


def greedy_additive_generators(add):
    """The greedy additive generating set of rings._additive_generators,
    each new generator's closure taken over all generators so far: the
    least element not yet reached joins the set, and the reached set
    grows by r + g for every g in it until it is closed."""
    reached = np.zeros(len(add), dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        fresh = np.flatnonzero(reached)
        while len(fresh):
            sums = np.unique(add[fresh[:, None], gens])
            fresh = sums[~reached[sums]]
            reached[fresh] = True
    return gens


def pairwise_one_sided_ideals(ring, side="left"):
    """Every nonzero left (or right) ideal, as sorted element-index
    arrays ordered by size, then elements: the principal ideals of the
    unit orbit minima, closed under sums, each I + J taken as the unique
    entries of all |I| |J| pairwise sums."""
    found = {}
    for x in _minima(_unit_orbits(ring, side)):
        ideal = principal_ideal_elements(ring, x, side)
        found.setdefault(ideal.tobytes(), ideal)
    frontier = list(found)
    while frontier:
        fresh = []
        summed = set()
        for a_key in frontier:
            a = found[a_key]
            summed.add(a_key)
            for b_key, b in list(found.items()):
                if b_key in summed:
                    continue
                s = np.unique(ring.add_table[np.ix_(a, b)])
                if s.tobytes() not in found:
                    found[s.tobytes()] = s
                    fresh.append(s.tobytes())
        frontier = fresh
    ideals = sorted(found.values(), key=lambda v: (len(v), v.tolist()))
    return [i for i in ideals if len(i) > 1 or i[0] != 0]
