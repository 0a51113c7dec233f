"""Finite Frobenius rings realized as explicit operation tables.

Supported constructions: Z_m, GF(p^r) with a monic irreducible modulus,
full matrix rings over such fields, and finite direct products of any of
these.  Elements are indices 0..order-1 with index 0 the zero element and
index 1 the multiplicative identity; the remaining elements keep the
constructor's natural order (residues for Z_m, coefficient-vector value
for GF, row-major entry tuples for matrices, mixed-radix component tuples
for products).

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

    def value(self, x):
        return self.exponents[x]

    def is_additive_homomorphism(self, ring):
        e = self.modulus
        exps = np.asarray(self.exponents, dtype=np.int64)
        if exps[0] % e != 0:
            return False
        lhs = exps[ring.add_table]
        rhs = exps[:, None] + exps[None, :]
        return bool((((lhs - rhs) % e) == 0).all())


def is_generating_character(ring, character):
    """True iff for every x != 0 some left multiple rx has a nonzero
    character exponent, i.e. the character kernel contains no nonzero
    left ideal."""
    e = character.modulus
    exps = np.asarray(character.exponents, dtype=np.int64)
    nonzero = (exps[ring.mul_table] % e) != 0
    hit = nonzero.any(axis=0)
    return bool(hit[1:].all())


# ------------------------------------------------------------- the ring


class FiniteRing:
    """Tables-backed finite unital ring on element indices 0..order-1.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, spec, labels, add_table, mul_table, char_exponents,
                 exponent, meta=None, verify=True):
        self.spec = spec
        self.labels = list(labels)
        self.order = len(self.labels)
        self.add_table = np.ascontiguousarray(add_table, dtype=np.int32)
        self.mul_table = np.ascontiguousarray(mul_table, dtype=np.int32)
        self.char_exponents = np.ascontiguousarray(char_exponents,
                                                   dtype=np.int64)
        self.exponent = int(exponent)
        self.character = GeneratingCharacter(
            tuple(int(v) for v in self.char_exponents), self.exponent)
        self.zero = 0
        self.one = 1

        counts = (self.add_table == 0).sum(axis=1)
        if not (counts == 1).all():
            raise RingConstructionError("additive inverses are not unique")
        self.neg_table = np.argmax(self.add_table == 0, axis=1).astype(np.int32)

        left_inv = self.mul_table == 1
        two_sided = left_inv & left_inv.T
        self.units_array = np.flatnonzero(two_sided.any(axis=1)).astype(np.int32)
        self.units = frozenset(int(u) for u in self.units_array)

        self._commutative = bool((self.mul_table == self.mul_table.T).all())
        self._op = None
        self.meta = meta or {}

        if verify:
            self._verify()

    # -- scalar conveniences ------------------------------------------

    def add(self, a, b):
        return int(self.add_table[a, b])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def neg(self, a):
        return int(self.neg_table[a])

    def sub(self, a, b):
        return int(self.add_table[a, self.neg_table[b]])

    def label(self, x):
        return self.labels[x]

    @property
    def is_commutative(self):
        return self._commutative

    def __repr__(self):
        return f"FiniteRing({self.spec.text()}, order={self.order})"

    # -- construction-time verification -------------------------------

    def _verify(self):
        n = self.order
        idx = np.arange(n)
        if not (self.add_table[0] == idx).all():
            raise RingConstructionError("0 is not an additive identity")
        if not (self.add_table == self.add_table.T).all():
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
        if not char.is_additive_homomorphism(self):
            raise CharacterError("character exponent map is not additive")
        if not is_generating_character(self, char):
            raise CharacterError(
                f"character of {self.spec.text()} is not generating")
        if 1 not in self.units:
            raise RingConstructionError("1 is not a unit")

    def _check_axioms_exhaustive(self):
        add, mul = self.add_table, self.mul_table
        for a in range(self.order):
            add_a = add[a]
            mul_a = mul[a]
            if not (add[add_a][:, :] == add_a[add]).all():
                raise RingConstructionError(f"addition not associative at {a}")
            if not (mul[mul_a][:, :] == mul_a[mul]).all():
                raise RingConstructionError(
                    f"multiplication not associative at {a}")
            # a(b+c) == ab + ac
            if not (mul_a[add] == add[mul_a[:, None], mul_a[None, :]]).all():
                raise RingConstructionError(
                    f"left distributivity fails at {a}")
            # (b+c)a == ba + ca
            col = mul[:, a]
            if not (col[add] == add[col[:, None], col[None, :]]).all():
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
    if not _is_prime(p):
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
    if not _fp_is_irreducible(poly, p):
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


def _realize_mat(spec, order_cap, verify):
    m = spec.m
    if m < 1:
        raise RingConstructionError("matrix size must be >= 1")
    base = build_ring(spec.base, order_cap=order_cap, verify=verify)
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


def _realize_product(spec, order_cap, verify):
    if not spec.factors:
        raise RingConstructionError("product needs at least one factor")
    factors = [build_ring(f, order_cap=order_cap, verify=verify)
               for f in spec.factors]
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


def build_ring(spec, *, order_cap=DEFAULT_ORDER_CAP, verify=True):
    """Build the ring described by spec, with all invariants verified."""
    order = spec.order
    if order > order_cap:
        raise CapExceededError(
            f"ring order {order} exceeds cap {order_cap}")
    if order < 2:
        raise RingConstructionError("ring order must be >= 2")

    base_ring = None
    factor_rings = None
    if isinstance(spec, Zm):
        labels, add, mul, exps, e, one, arrays = _realize_zm(spec)
    elif isinstance(spec, GF):
        labels, add, mul, exps, e, one, arrays = _realize_gf(spec)
    elif isinstance(spec, MatRing):
        labels, add, mul, exps, e, one, arrays, base_ring = _realize_mat(
            spec, order_cap, verify)
    elif isinstance(spec, Product):
        labels, add, mul, exps, e, one, arrays, factor_rings = _realize_product(
            spec, order_cap, verify)
    else:
        raise RingConstructionError(f"cannot build from spec {spec!r}")

    labels, add, mul, exps, arrays = _pin_identity(
        labels, add, mul, exps, one, arrays)
    meta = dict(arrays)
    if base_ring is not None:
        meta["base_ring"] = base_ring
    if factor_rings is not None:
        meta["factor_rings"] = factor_rings
    return FiniteRing(spec, labels, add, mul, exps, e, meta=meta,
                      verify=verify)


def ring_from_text(text, *, order_cap=DEFAULT_ORDER_CAP, verify=True):
    return build_ring(parse_ring_spec(text, order_cap=order_cap),
                      order_cap=order_cap, verify=verify)


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
                    ring.exponent, meta={}, verify=True)
    ring._op = op
    op._op = ring
    return op


# --------------------------------------------------- structural helpers


def order2_socle_part(ring):
    """Generators of the order-2 principal left ideals, and the subgroup
    of sums of an even number of them."""
    gens = []
    for x in range(1, ring.order):
        col = ring.mul_table[:, x]
        vals = np.unique(col)
        if len(vals) == 2 and vals[0] == 0 and vals[1] == x:
            gens.append(x)

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


def socle_rank_data(ring):
    """(factors, ranks) for the built-in constructions: factors lists
    the simple factors (q_i, m_i) of the socle, M_{m_i}(GF(q_i)), and
    ranks[x] is the per-factor matrix rank tuple of x, or None when x
    lies outside the socle.  None for any other ring."""
    spec = ring.spec
    if isinstance(spec, GF):
        return [(spec.order, 1)], [(int(x != 0),) for x in range(ring.order)]
    if isinstance(spec, MatRing):
        m = spec.m
        base = ring.meta["base_ring"]
        entries = np.asarray(ring.meta["entries"]).reshape(-1, m, m)
        return [(base.order, m)], [(gf_matrix_rank(base, mat.tolist()),)
                                   for mat in entries]
    if isinstance(spec, Zm):
        primes = _prime_factors(spec.m)
        step = spec.m // math.prod(primes)
        return [(p, 1) for p in primes], [
            None if x % step else tuple(int(x // step % p != 0)
                                        for p in primes)
            for x in range(spec.m)]
    if isinstance(spec, Product):
        parts = [socle_rank_data(f) for f in ring.meta["factor_rings"]]
        if any(part is None for part in parts):
            return None
        ranks = []
        for comps in ring.meta["components"]:
            tuples = [part[1][int(c)] for part, c in zip(parts, comps)]
            ranks.append(None if None in tuples else sum(tuples, ()))
        return [f for part in parts for f in part[0]], ranks
    return None


def structural_socle(ring):
    """Element set of the socle for constructions where it is known
    structurally, else None."""
    data = socle_rank_data(ring)
    if data is None:
        return None
    return frozenset(x for x, rank in enumerate(data[1]) if rank is not None)


def gf_matrix_rank(field, rows):
    """Rank of a matrix with entries in a tables-backed field."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for i in range(row, n_rows):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = _field_inv(field, mat[row][col])
        for i in range(row + 1, n_rows):
            if mat[i][col] != 0:
                factor = field.mul(mat[i][col], inv)
                for j in range(col, n_cols):
                    mat[i][j] = field.sub(
                        mat[i][j], field.mul(factor, mat[row][j]))
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def _field_inv(field, a):
    v = int(np.argmax(field.mul_table[a] == 1))
    if field.mul(a, v) != 1:
        raise RingConstructionError(f"element {a} has no inverse")
    return v
