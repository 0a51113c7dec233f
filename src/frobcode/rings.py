"""Finite Frobenius rings realized as explicit operation tables.

Supported constructions: Z_m, GF(p^r) with a monic irreducible modulus,
full matrix rings over such fields, and finite direct products of any of
these.  Elements are indices 0..order-1 with index 0 the zero element and
index 1 the multiplicative identity; the remaining elements keep the
constructor's natural order (residues for Z_m, coefficient-vector value
for GF, row-major entry tuples for matrices, mixed-radix component tuples
for products).  The int32 operation tables are built, and checked at
construction, in blocks of at most BLOCK_ENTRIES entries, directly in
that order.

Every ring carries a structurally built character, stored as an exponent
map c with modulus e (the additive exponent), meaning x maps to the
c(x)-th power of a primitive e-th root of unity.  The generating property
(no nonzero element is annihilated by the character on its whole
principal left ideal) is certified at construction time, as are the ring
axioms themselves (exhaustively up to order 256, on a fixed-seed sample
of triples above that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    CharacterError,
    ReduciblePolynomialError,
    RingConstructionError,
    SpecParseError,
)

DEFAULT_ORDER_CAP = 4096

# Digits of the longest integer the spec parser reads, unless the order
# cap itself has more digits.
_MAX_INT_DIGITS = 100

_FULL_AXIOM_LIMIT = 256
_AXIOM_SAMPLES = 200_000

# Table passes work on row blocks of at most this many entries, so no
# working array is order x order; an int64 one holds 8 MiB.
BLOCK_ENTRIES = 1 << 20
# Side of the square tiles the symmetry checks compare with their
# transposes.
_TILE = 128

# Irreducible moduli for the small prime powers, ascending coefficients
# including the leading 1.  These are the Conway polynomials.
BUILTIN_POLYS = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (2, 4): (1, 1, 0, 0, 1),
}


# ----------------------------------------------------------------- specs


class RingSpec:
    """Structured description of a ring construction."""

    @property
    def order(self):
        raise NotImplementedError

    def text(self):
        raise NotImplementedError

    def __str__(self):
        return self.text()


@dataclass(frozen=True)
class Zm(RingSpec):
    m: int

    @property
    def order(self):
        return self.m

    def text(self):
        return f"Z{self.m}"


@dataclass(frozen=True)
class GF(RingSpec):
    p: int
    r: int = 1
    poly: tuple = None

    @property
    def order(self):
        return self.p ** self.r

    def text(self):
        if self.poly is not None:
            coeffs = ",".join(str(c) for c in self.poly)
            return f"GF({self.p}^{self.r},poly={coeffs})"
        if self.r == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.r})"

    def resolved_poly(self):
        """The modulus actually used: explicit, else built-in, else error."""
        if self.r == 1:
            return None
        if self.poly is not None:
            return tuple(c % self.p for c in self.poly)
        try:
            return BUILTIN_POLYS[(self.p, self.r)]
        except KeyError:
            raise RingConstructionError(
                f"no built-in modulus for GF({self.p}^{self.r}); pass poly="
            ) from None


@dataclass(frozen=True)
class MatRing(RingSpec):
    m: int
    base: GF

    @property
    def order(self):
        return self.base.order ** (self.m * self.m)

    def text(self):
        return f"M{self.m}({self.base.text()})"


@dataclass(frozen=True)
class Product(RingSpec):
    factors: tuple

    @property
    def order(self):
        n = 1
        for f in self.factors:
            n *= f.order
        return n

    def text(self):
        return "prod(" + ",".join(f.text() for f in self.factors) + ")"


@dataclass(frozen=True)
class OpSpec(RingSpec):
    """Marker spec for the opposite ring of a noncommutative construction."""

    base: RingSpec

    @property
    def order(self):
        return self.base.order

    def text(self):
        return f"op({self.base.text()})"


# ---------------------------------------------------------- spec parsing


class _Cursor:
    def __init__(self, text, order_cap):
        self.text = text
        self.order_cap = order_cap
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, s):
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def expect(self, s):
        if not self.startswith(s):
            self.fail(f"expected {s!r}")
        self.pos += len(s)

    def read_int(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        digits = self.text[start:self.pos].lstrip("-")
        if not digits:
            self.fail("expected an integer")
        # an integer this long exceeds the order cap, and int() would
        # refuse it (past 4300 digits) or take quadratic time: refuse it
        # before parsing; shorter ones reach check_order's message
        if len(digits) > max(_MAX_INT_DIGITS, len(str(self.order_cap))):
            raise SpecParseError(
                f"integer of {len(digits)} digits exceeds the order cap "
                f"{self.order_cap}", position=start)
        return int(self.text[start:self.pos])

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail(self, message):
        raise SpecParseError(message, position=self.pos)

    def check_order(self, base, exponent):
        """Refuse an order base**exponent past the order cap before any
        work depends on it, without computing a power beyond the cap."""
        cap = self.order_cap
        if base < 2:
            return
        if exponent == 1 or (base <= cap and exponent <= cap.bit_length()):
            order = base ** exponent
            if order <= cap:
                return
        else:
            order = f"{base}^{exponent}"
        raise CapExceededError(f"ring order {order} exceeds cap {cap}")


def _parse_spec(cur):
    if cur.startswith("prod("):
        cur.expect("prod(")
        factors = [_parse_spec(cur)]
        while cur.peek() == ",":
            cur.expect(",")
            factors.append(_parse_spec(cur))
        cur.expect(")")
        return Product(tuple(factors))
    if cur.startswith("GF("):
        return _parse_gf(cur)
    if cur.peek() == "M":
        cur.expect("M")
        m = cur.read_int()
        if m < 1:
            cur.fail("matrix size must be at least 1")
        cur.expect("(")
        base = _parse_gf(cur)
        cur.expect(")")
        cur.check_order(base.order, m * m)
        return MatRing(m, base)
    if cur.peek() == "Z":
        cur.expect("Z")
        m = cur.read_int()
        if m < 2:
            cur.fail("modulus must be at least 2")
        return Zm(m)
    cur.fail("expected a ring spec (Z<m>, GF(..), M<m>(..), or prod(..))")


def _parse_gf(cur):
    cur.expect("GF(")
    p = cur.read_int()
    r = 1
    if cur.peek() == "^":
        cur.expect("^")
        r = cur.read_int()
        if r < 1:
            cur.fail("field exponent must be at least 1")
        cur.check_order(p, r)
        if not _is_prime(p):
            cur.fail(f"{p} is not prime")
    else:
        cur.check_order(p, 1)
        if not _is_prime(p):
            # prime-power shorthand: GF(4) means GF(2^2)
            decomposed = _prime_power(p)
            if decomposed is None:
                cur.fail(f"{p} is not a prime power")
            p, r = decomposed
    poly = None
    if cur.peek() == ",":
        cur.expect(",")
        cur.expect("poly=")
        coeffs = [cur.read_int()]
        while cur.peek() == ",":
            cur.expect(",")
            coeffs.append(cur.read_int())
        poly = tuple(coeffs)
    cur.expect(")")
    return GF(p, r, poly)


def parse_ring_spec(text, *, order_cap=DEFAULT_ORDER_CAP):
    """Parse the ring spec grammar: Z<m>, GF(p^r[,poly=c0,c1,..]),
    M<m>(GF(..)), prod(spec,..).  A field or matrix ring whose order
    exceeds order_cap is refused here, before its primality tests."""
    cur = _Cursor(text, order_cap)
    spec = _parse_spec(cur)
    if not cur.at_end():
        cur.fail("trailing characters after ring spec")
    return spec


# ------------------------------------------------- F_p[x] helper routines


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_power(n):
    """(p, r) with n = p**r and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            r = 0
            while n % p == 0:
                n //= p
                r += 1
            return (p, r) if n == 1 else None
        p += 1
    return (n, 1)


def _fp_trim(c, p):
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_polymod(a, b, p):
    """Remainder of a modulo b over F_p; b must have invertible lead."""
    a = _fp_trim(a, p)
    b = _fp_trim(b, p)
    inv_lead = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    while len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j, d in enumerate(b):
            a[shift + j] = (a[shift + j] - c * d) % p
        a = _fp_trim(a, p)
        if not a:
            break
    return a


def _fp_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    r = len(poly) - 1
    if r < 1:
        return False
    for d in range(1, r // 2 + 1):
        for code in range(p ** d):
            g = []
            v = code
            for _ in range(d):
                g.append(v % p)
                v //= p
            g.append(1)
            if not _fp_polymod(list(poly), g, p):
                return False
    return True


# ----------------------------------------------------------- characters


@dataclass(frozen=True)
class GeneratingCharacter:
    """Additive character as an exponent map: x maps to exponent(x) in Z_e."""

    exponents: tuple
    modulus: int

    def is_additive_homomorphism(self, ring):
        ex, e = _reduced_exponents(self)
        if ex[0] != 0:
            return False
        return all(_additive_rows(ex, e, ring.add_table, rows)
                   for rows in _row_blocks(ring.order, ring.order))


def is_generating_character(ring, character):
    """True iff for every x != 0 some left multiple rx has a nonzero
    character exponent, i.e. the character kernel contains no nonzero
    left ideal."""
    ex, _ = _reduced_exponents(character)
    nonzero = ex != 0
    hit = np.zeros(ring.order, dtype=bool)
    for rows in _row_blocks(ring.order, ring.order):
        hit |= _nonzero_hits(nonzero, ring.mul_table, rows)
    return bool(hit[1:].all())


def _reduced_exponents(character):
    """The exponents mod the modulus e, as int32 while 2e fits in it."""
    e = character.modulus
    ex = np.asarray(character.exponents, dtype=np.int64) % e
    return (ex.astype(np.int32) if 2 * e < 2 ** 31 else ex), e


def _additive_rows(ex, e, add, rows):
    """True iff ex[a + b] = ex[a] + ex[b] mod e for every a in rows."""
    # ex[a + b] - ex[b] lies in (-e, e), so it must be ex[a] or ex[a] - e
    diff = np.take(ex, add[rows]) - ex
    own = ex[rows, None]
    return bool(((diff == own) | (diff == own - e)).all())


def _nonzero_hits(nonzero, mul, rows):
    """Columns x for which nonzero[r x] holds for some r in rows."""
    return np.take(nonzero, mul[rows]).any(axis=0)


# ------------------------------------------------------------- the ring


class FiniteRing:
    """Tables-backed finite unital ring on element indices 0..order-1.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, spec, labels, add_table, mul_table, char_exponents,
                 exponent, meta=None):
        self.spec = spec
        self.labels = list(labels)
        self.order = len(self.labels)
        self.add_table = np.ascontiguousarray(add_table, dtype=np.int32)
        self.mul_table = np.ascontiguousarray(mul_table, dtype=np.int32)
        self.char_exponents = np.ascontiguousarray(char_exponents,
                                                   dtype=np.int64)
        self.exponent = int(exponent)
        self.character = GeneratingCharacter(
            tuple(self.char_exponents.tolist()), self.exponent)
        self.zero = 0
        self.one = 1

        self._op = None
        self.meta = meta or {}
        self._verify(*self._scan_tables())

    # -- scalar conveniences ------------------------------------------

    def add(self, a, b):
        return int(self.add_table[a, b])

    @property
    def is_commutative(self):
        return self._commutative

    def __repr__(self):
        return f"FiniteRing({self.spec.text()}, order={self.order})"

    # -- construction-time verification -------------------------------

    def _scan_tables(self):
        """One pass over both tables in row blocks.  Sets neg_table, the
        units and commutativity, and returns whether addition commutes
        and whether the character is additive and generating, for
        _verify to report in its order."""
        n = self.order
        add, mul = self.add_table, self.mul_table
        neg = np.empty(n, dtype=np.int32)
        unit = np.zeros(n, dtype=bool)
        commutative = add_commutes = additive = True
        ex, e = _reduced_exponents(self.character)
        nonzero = ex != 0
        hit = np.zeros(n, dtype=bool)
        for rows in _row_blocks(n, n):
            zero = add[rows] == 0
            if not (zero.sum(axis=1) == 1).all():
                raise RingConstructionError("additive inverses are not unique")
            neg[rows] = zero.argmax(axis=1)
            # x is a unit iff x y = 1 = y x for some y
            xs, ys = np.nonzero(mul[rows] == 1)
            xs += rows.start
            unit[xs[mul[ys, xs] == 1]] = True
            commutative = commutative and _symmetric_rows(mul, rows)
            add_commutes = add_commutes and _symmetric_rows(add, rows)
            additive = additive and _additive_rows(ex, e, add, rows)
            hit |= _nonzero_hits(nonzero, mul, rows)
        self.neg_table = neg
        self.units_array = np.flatnonzero(unit).astype(np.int32)
        self.units = frozenset(self.units_array.tolist())
        self._commutative = commutative
        return add_commutes, additive, bool(hit[1:].all())

    def _verify(self, add_commutes, additive, generating):
        n = self.order
        idx = np.arange(n)
        if not (self.add_table[0] == idx).all():
            raise RingConstructionError("0 is not an additive identity")
        if not add_commutes:
            raise RingConstructionError("addition is not commutative")
        if not ((self.mul_table[1] == idx).all()
                and (self.mul_table[:, 1] == idx).all()):
            raise RingConstructionError("1 is not a multiplicative identity")
        if not (self.mul_table[0] == 0).all() or not (self.mul_table[:, 0] == 0).all():
            raise RingConstructionError("0 does not annihilate")

        if n <= _FULL_AXIOM_LIMIT:
            self._check_axioms_exhaustive()
        else:
            self._check_axioms_sampled()

        self._verify_exponent()

        char = self.character
        if char.exponents[0] % char.modulus != 0:
            raise CharacterError("character does not vanish at 0")
        if not additive:
            raise CharacterError("character exponent map is not additive")
        if not generating:
            raise CharacterError(
                f"character of {self.spec.text()} is not generating")
        if 1 not in self.units:
            raise RingConstructionError("1 is not a unit")

    def _check_axioms_exhaustive(self):
        add, mul = self.add_table, self.mul_table
        for a in range(self.order):
            add_a = add[a]
            mul_a = mul[a]
            if not (add[add_a] == np.take(add_a, add)).all():
                raise RingConstructionError(f"addition not associative at {a}")
            if not (mul[mul_a] == np.take(mul_a, mul)).all():
                raise RingConstructionError(
                    f"multiplication not associative at {a}")
            # a(b+c) == ab + ac; add[x][:, x][b, c] is add[x[b], x[c]]
            if not (np.take(mul_a, add)
                    == np.take(add[mul_a], mul_a, axis=1)).all():
                raise RingConstructionError(
                    f"left distributivity fails at {a}")
            # (b+c)a == ba + ca
            col = mul[:, a]
            if not (np.take(col, add) == np.take(add[col], col, axis=1)).all():
                raise RingConstructionError(
                    f"right distributivity fails at {a}")

    def _check_axioms_sampled(self):
        rng = np.random.default_rng(0)
        add, mul = self.add_table, self.mul_table
        a = rng.integers(0, self.order, _AXIOM_SAMPLES)
        b = rng.integers(0, self.order, _AXIOM_SAMPLES)
        c = rng.integers(0, self.order, _AXIOM_SAMPLES)
        if not (add[add[a, b], c] == add[a, add[b, c]]).all():
            raise RingConstructionError("addition not associative (sampled)")
        if not (mul[mul[a, b], c] == mul[a, mul[b, c]]).all():
            raise RingConstructionError(
                "multiplication not associative (sampled)")
        if not (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all():
            raise RingConstructionError("left distributivity fails (sampled)")
        if not (mul[add[a, b], c] == add[mul[a, c], mul[b, c]]).all():
            raise RingConstructionError("right distributivity fails (sampled)")

    def _verify_exponent(self):
        e = self.exponent
        if self._scalar_multiple_nonzero(e):
            raise RingConstructionError(
                f"additive exponent {e} does not annihilate the group")
        for p in _prime_factors(e):
            if not self._scalar_multiple_nonzero(e // p):
                raise RingConstructionError(
                    f"additive exponent {e} is not minimal")

    def _scalar_multiple_nonzero(self, k):
        """True iff k*x != 0 for some x (k-fold addition)."""
        acc = np.zeros(self.order, dtype=np.int32)
        base = np.arange(self.order, dtype=np.int32)
        while k:
            if k & 1:
                acc = self.add_table[acc, base]
            k >>= 1
            if k:
                base = self.add_table[base, base]
        return bool((acc != 0).any())


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ------------------------------------------------------------- builders


def _row_blocks(n, width):
    """Slices covering rows 0..n-1, each at least one row and otherwise
    at most BLOCK_ENTRIES entries of the given row width."""
    step = max(1, BLOCK_ENTRIES // max(1, width))
    return [slice(start, min(n, start + step)) for start in range(0, n, step)]


def _symmetric_rows(table, rows):
    """True iff table[i, j] == table[j, i] for i in rows and j from
    rows.start on; over all row blocks that is the whole symmetry
    check.  Square tiles keep the transposed reads in cache."""
    r0, r1 = rows.start, rows.stop
    return all((table[r0:r1, c:c + _TILE] == table[c:c + _TILE, r0:r1].T).all()
               for c in range(r0, len(table), _TILE))


def _pinned_order(n, one):
    """Natural indices in identity-pinned order (zero, the identity,
    then the rest in natural order), and the int32 inverse map."""
    perm = np.concatenate(([0, one], np.arange(1, one), np.arange(one + 1, n)))
    inv = np.empty(n, dtype=np.int32)
    inv[perm] = np.arange(n, dtype=np.int32)
    return perm, inv


def _radix_table(n, row_parts, keys, inv):
    """The n x n int32 table whose entry (a, b) is the natural index
    sum_f part_f[a, keys_f[b]], mapped through inv, where the parts
    are row_parts(rows): small per-row lookup tables already scaled by
    their radix.  Built one row block at a time."""
    table = np.empty((n, n), dtype=np.int32)
    for rows in _row_blocks(n, n):
        parts = row_parts(rows)
        acc = np.take(parts[0], keys[0], axis=1)
        for part, key in zip(parts[1:], keys[1:]):
            acc += np.take(part, key, axis=1)
        # indices are in range by construction; clip mode writes
        # straight into the table
        np.take(inv, acc, out=table[rows], mode="clip")
    return table


def _component_table(n, tables, comps, radix, inv):
    """Table of a componentwise operation: tables[f] acts on component
    f of the elements, whose rows comps holds in pinned order."""
    scaled = [np.asarray(tab * int(r), dtype=np.int32)
              for tab, r in zip(tables, radix)]
    return _radix_table(
        n, lambda rows: [s[comps[rows, f]] for f, s in enumerate(scaled)],
        [comps[:, f] for f in range(len(scaled))], inv)


def _realize_zm(spec):
    m = spec.m
    if m < 2:
        raise RingConstructionError("Z_m needs m >= 2")
    idx = np.arange(m, dtype=np.int64)
    add = np.empty((m, m), dtype=np.int32)
    mul = np.empty((m, m), dtype=np.int32)
    for rows in _row_blocks(m, m):
        block = np.add.outer(idx[rows], idx)
        np.subtract(block, m, out=block, where=block >= m)
        add[rows] = block
        np.multiply.outer(idx[rows], idx, out=block)
        np.remainder(block, m, out=block)
        mul[rows] = block
    labels = [str(i) for i in range(m)]
    return labels, add, mul, idx.copy(), m, {}


def _realize_gf(spec):
    p, r = spec.p, spec.r
    if not _is_prime(p):
        raise RingConstructionError(f"{p} is not prime")
    if r < 1:
        raise RingConstructionError("extension degree must be >= 1")
    q = p ** r
    if r == 1:
        labels, add, mul, exps, _, _ = _realize_zm(Zm(p))
        return labels, add, mul, exps, p, {"digits": np.arange(p)[:, None]}

    poly = spec.resolved_poly()
    if len(poly) != r + 1 or poly[-1] != 1:
        raise RingConstructionError(
            f"modulus must be monic of degree {r} (got {poly})")
    if not _fp_is_irreducible(poly, p):
        raise ReduciblePolynomialError(
            f"{poly} is reducible over F_{p}")

    idx = np.arange(q, dtype=np.int64)
    digits = np.stack([(idx // p ** j) % p for j in range(r)], axis=1)
    pows = p ** np.arange(r, dtype=np.int64)

    zp = np.arange(p)
    zp_add = (zp[:, None] + zp[None, :]) % p
    # the identity x^0 is already at index 1
    add = _component_table(q, [zp_add] * r, digits, pows,
                           _pinned_order(q, 1)[1])

    # column j of mx[a] holds the digits of a x^j, so mx[a] is the
    # F_p-matrix of b -> a b; x^r = -(poly[0] + ... + poly[r-1] x^(r-1))
    reduce_top = np.array([(-c) % p for c in poly[:r]], dtype=np.int64)
    columns = [digits]
    for _ in range(r - 1):
        prev = columns[-1]
        shifted = np.concatenate(
            [np.zeros((q, 1), dtype=np.int64), prev[:, :-1]], axis=1)
        columns.append((shifted + prev[:, -1:] * reduce_top) % p)
    mx = np.stack(columns, axis=2)

    mul = np.empty((q, q), dtype=np.int32)
    for rows in _row_blocks(q, q * r):
        mul[rows] = pows @ (np.matmul(mx[rows], digits.T) % p)

    # the trace to the prime subfield is the trace of b -> a b
    exps = np.trace(mx, axis1=1, axis2=2) % p
    return ([str(i) for i in range(q)], add, mul, exps, p,
            {"digits": digits})


def _realize_mat(spec, order_cap):
    m = spec.m
    if m < 1:
        raise RingConstructionError("matrix size must be >= 1")
    base = build_ring(spec.base, order_cap=order_cap)
    q = base.order
    mm = m * m
    n = q ** mm
    # row-major entries, first entry most significant
    radix = np.array([q ** (mm - 1 - t) for t in range(mm)], dtype=np.int64)
    # the identity has a 1 at each diagonal entry i m + i
    perm, inv = _pinned_order(n, int(radix[::m + 1].sum()))
    entries = np.stack([(perm // radix[t]) % q for t in range(mm)],
                       axis=1).astype(np.int32)

    badd, bmul = base.add_table, base.mul_table
    add = _component_table(n, [badd] * mm, entries, radix, inv)

    # a b is a acting on each column of b: over the q^m column vectors
    # v (first entry most significant), column k of a b contributes
    # sum_i (a v)_i radix[i m + k] to the natural index
    vecs = np.arange(q ** m)
    vdig = [(vecs // q ** (m - 1 - j)) % q for j in range(m)]
    col_keys = [sum(entries[:, j * m + k].astype(np.int64) * q ** (m - 1 - j)
                    for j in range(m)) for k in range(m)]

    def column_parts(rows):
        ea = entries[rows]
        av = []
        for i in range(m):
            acc = bmul[ea[:, i * m, None], vdig[0]]
            for j in range(1, m):
                acc = badd[acc, bmul[ea[:, i * m + j, None], vdig[j]]]
            av.append(acc)
        return [sum(av[i] * int(radix[i * m + k]) for i in range(m))
                for k in range(m)]

    mul = _radix_table(n, column_parts, col_keys, inv)

    # character: base character of the matrix trace
    tr = entries[:, 0]
    for i in range(1, m):
        tr = badd[tr, entries[:, i * m + i]]
    exps = base.char_exponents[tr]

    names = base.labels
    labels = ["[" + ";".join(" ".join(names[c] for c in row[i * m:(i + 1) * m])
                             for i in range(m)) + "]"
              for row in entries.tolist()]
    return labels, add, mul, exps, base.exponent, {"entries": entries}, base


def _realize_product(spec, order_cap):
    if not spec.factors:
        raise RingConstructionError("product needs at least one factor")
    factors = [build_ring(f, order_cap=order_cap) for f in spec.factors]
    orders = [f.order for f in factors]
    t = len(factors)
    n = math.prod(orders)
    radix = np.empty(t, dtype=np.int64)
    acc = 1
    for f in range(t - 1, -1, -1):
        radix[f] = acc
        acc *= orders[f]
    perm, inv = _pinned_order(n, int(radix.sum()))
    comps = np.stack([(perm // radix[f]) % orders[f] for f in range(t)],
                     axis=1).astype(np.int32)

    add = _component_table(n, [f.add_table for f in factors], comps, radix,
                           inv)
    mul = _component_table(n, [f.mul_table for f in factors], comps, radix,
                           inv)

    e = 1
    for f in factors:
        e = math.lcm(e, f.exponent)
    exps = np.zeros(n, dtype=np.int64)
    for f in range(t):
        exps += factors[f].char_exponents[comps[:, f]] * (e // factors[f].exponent)
    exps %= e

    names = [f.labels for f in factors]
    labels = ["(" + ",".join(lab[c] for lab, c in zip(names, row)) + ")"
              for row in comps.tolist()]
    return labels, add, mul, exps, e, {"components": comps}, factors


def build_ring(spec, *, order_cap=DEFAULT_ORDER_CAP):
    """Build the ring described by spec, with all invariants verified.
    The tables are built directly in identity-pinned order."""
    order = spec.order
    if order > order_cap:
        raise CapExceededError(
            f"ring order {order} exceeds cap {order_cap}")
    if order < 2:
        raise RingConstructionError("ring order must be >= 2")

    base_ring = None
    factor_rings = None
    if isinstance(spec, Zm):
        labels, add, mul, exps, e, arrays = _realize_zm(spec)
    elif isinstance(spec, GF):
        labels, add, mul, exps, e, arrays = _realize_gf(spec)
    elif isinstance(spec, MatRing):
        labels, add, mul, exps, e, arrays, base_ring = _realize_mat(
            spec, order_cap)
    elif isinstance(spec, Product):
        labels, add, mul, exps, e, arrays, factor_rings = _realize_product(
            spec, order_cap)
    else:
        raise RingConstructionError(f"cannot build from spec {spec!r}")

    meta = dict(arrays)
    if base_ring is not None:
        meta["base_ring"] = base_ring
    if factor_rings is not None:
        meta["factor_rings"] = factor_rings
    return FiniteRing(spec, labels, add, mul, exps, e, meta=meta)


def ring_from_text(text, *, order_cap=DEFAULT_ORDER_CAP):
    return build_ring(parse_ring_spec(text, order_cap=order_cap),
                      order_cap=order_cap)


def opposite_ring(ring):
    """The opposite ring (multiplication reversed); same element set,
    labels, character, and units.  Commutative rings are their own
    opposite and are returned unchanged."""
    if ring._op is not None:
        return ring._op
    if ring.is_commutative:
        ring._op = ring
        return ring
    op = FiniteRing(OpSpec(ring.spec), ring.labels, ring.add_table,
                    ring.mul_table.T.copy(), ring.char_exponents,
                    ring.exponent, meta={})
    ring._op = op
    op._op = ring
    return op


# --------------------------------------------------- structural helpers


def order2_socle_part(ring):
    """Generators of the order-2 principal left ideals, and the subgroup
    of sums of an even number of them."""
    # x generates an order-2 left ideal iff column x of the
    # multiplication table takes exactly the values 0 and x
    n = ring.order
    idx = np.arange(n, dtype=np.int32)
    inside = np.ones(n, dtype=bool)
    has_zero = np.zeros(n, dtype=bool)
    has_self = np.zeros(n, dtype=bool)
    for rows in _row_blocks(n, n):
        block = ring.mul_table[rows]
        zero = block == 0
        same = block == idx
        inside &= (zero | same).all(axis=0)
        has_zero |= zero.any(axis=0)
        has_self |= same.any(axis=0)
    gens = (np.flatnonzero((inside & has_zero & has_self)[1:]) + 1).tolist()

    s0 = {0}
    frontier = [ring.add(gens[i], gens[j])
                for i in range(len(gens)) for j in range(i + 1, len(gens))]
    work = list(frontier)
    while work:
        v = work.pop()
        if v in s0:
            continue
        s0.add(v)
        for w in list(s0):
            u = ring.add(v, w)
            if u not in s0:
                work.append(u)
    expected = 1 if len(gens) <= 1 else 2 ** (len(gens) - 1)
    if len(s0) != expected:
        raise RingConstructionError(
            f"even-sum subgroup has size {len(s0)}, expected {expected}")
    return gens, frozenset(s0)

