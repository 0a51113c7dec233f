"""Finite Frobenius rings realized as explicit operation tables.

Supported constructions: Z_m, GF(p^r) with a monic irreducible modulus,
full matrix rings over such fields, and finite direct products of any of
these.  Elements are indices 0..order-1 with index 0 the zero element and
index 1 the multiplicative identity; the remaining elements keep the
constructor's natural order (residues for Z_m, coefficient-vector value
for GF, row-major entry tuples for matrices, mixed-radix component tuples
for products).  Every array of ring elements, the operation tables
among them, has the one dtype ELEMENT_DTYPE (int16), which holds the
indices of every order up to ORDER_CAP = 4096.  The tables are built,
and checked at construction, in blocks of at most BLOCK_ENTRIES
entries, directly in that order and directly in that dtype.  A
componentwise table or a matrix product is one broadcast outer sum of
small per-row parts per row block, relabelled by one gather; Z_m
addition copies a sliding window, and Z_m products are formed in
int32.

Every ring carries a structurally built character, stored as an exponent
map c with modulus e (the additive exponent), meaning x maps to the
c(x)-th power of a primitive e-th root of unity.  Construction certifies
it with the two public checks, GeneratingCharacter.is_additive_homomorphism
and is_generating_character (no nonzero element is annihilated by the
character on its whole principal left ideal), and certifies the ring
axioms themselves: up to order 256 for every triple, proved on a greedy
additive generating set S in order^2 |S| checks per law (Light's
associativity test, then distributivity and trilinearity), and on a
fixed-seed sample of triples above that.

Primality, prime powers and the minimality of the additive exponent
come from cyclotomic.divisors, and irreducibility of a field modulus
from trial division with cyclotomic.poly_divmod.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import divisors, poly_divmod
from .errors import (
    CapExceededError,
    CharacterError,
    ReduciblePolynomialError,
    RingConstructionError,
    SpecParseError,
)

# The largest ring order built, and the dtype of every array of ring
# elements, which holds the element indices 0..order-1 of every order
# up to the cap.
ORDER_CAP = 4096
ELEMENT_DTYPE = np.int16
assert ORDER_CAP - 1 <= np.iinfo(ELEMENT_DTYPE).max

# Digits of the longest integer the spec parser reads.
_MAX_INT_DIGITS = 100

_FULL_AXIOM_LIMIT = 256
_AXIOM_SAMPLES = 200_000

# Table passes work on row blocks of at most this many entries, so no
# working array is order x order; an int64 one holds 8 MiB.  It is four
# times spans.BLOCK_ENTRIES on purpose: with 2^18 here, a process that
# has built M2(GF(8)) then runs `verify 'M2(GF(4))' --cap 65535` in
# 0.59-0.60 s instead of 0.36-0.54 s.  With glibc's malloc thresholds
# pinned both sizes run alike, which points to glibc's dynamic mmap
# threshold.
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
        """The modulus actually used: explicit, else built-in, else error
        (None for a prime field without one)."""
        if self.poly is not None:
            return tuple(c % self.p for c in self.poly)
        if self.r == 1:
            return None
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
    def __init__(self, text):
        self.text = text
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
        if len(digits) > _MAX_INT_DIGITS:
            raise SpecParseError(
                f"integer of {len(digits)} digits exceeds the order cap "
                f"{ORDER_CAP}", position=start)
        return int(self.text[start:self.pos])

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail(self, message):
        raise SpecParseError(message, position=self.pos)

    def check_order(self, base, exponent):
        """Refuse an order base**exponent past the order cap before any
        work depends on it, without computing a power beyond the cap."""
        cap = ORDER_CAP
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
    if cur.startswith("op("):
        cur.expect("op(")
        base = _parse_spec(cur)
        cur.expect(")")
        return OpSpec(base)
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
    cur.fail("expected a ring spec (Z<m>, GF(..), M<m>(..), prod(..), "
             "or op(..))")


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


def parse_ring_spec(text):
    """Parse the ring spec grammar: Z<m>, GF(p^r[,poly=c0,c1,..]),
    M<m>(GF(..)), prod(spec,..), op(spec).  A field or matrix ring whose order
    exceeds ORDER_CAP is refused here, before its primality tests."""
    cur = _Cursor(text)
    spec = _parse_spec(cur)
    if not cur.at_end():
        cur.fail("trailing characters after ring spec")
    return spec


# ------------------------------------- primes and irreducibility over F_p


def _is_prime(n):
    return len(divisors(n)) == 2


def _prime_power(n):
    """(p, r) with n = p**r and p prime, or None.  The least divisor
    p > 1 is prime, and p**r has r + 1 divisors."""
    if n < 2:
        return None
    ds = divisors(n)
    p, r = ds[1], len(ds) - 1
    return (p, r) if p ** r == n else None


def _fp_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2.  The
    divisor is monic, so the integer remainder reduced mod p is the
    remainder over F_p."""
    r = len(poly) - 1
    if r < 1:
        return False
    for d in range(1, r // 2 + 1):
        for code in range(p ** d):
            g = [code // p ** j % p for j in range(d)] + [1]
            if not any(c % p for c in poly_divmod(poly, g)[1]):
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
        for rows in _row_blocks(ring.order, ring.order):
            # ex[a + b] - ex[b] lies in (-e, e), so it must be ex[a] or
            # ex[a] - e
            diff = np.take(ex, ring.add_table[rows]) - ex
            own = ex[rows, None]
            if not ((diff == own) | (diff == own - e)).all():
                return False
        return True


def is_generating_character(ring, character):
    """True iff for every x != 0 some left multiple rx has a nonzero
    character exponent, i.e. the character kernel contains no nonzero
    left ideal."""
    ex, _ = _reduced_exponents(character)
    nonzero = ex != 0
    hit = np.zeros(ring.order, dtype=bool)
    for rows in _row_blocks(ring.order, ring.order):
        hit |= np.take(nonzero, ring.mul_table[rows]).any(axis=0)
    return bool(hit[1:].all())


def _reduced_exponents(character):
    """The exponents mod the modulus e, in the smallest signed integer
    dtype that holds 2e (int64 at most)."""
    e = character.modulus
    ex = np.asarray(character.exponents, dtype=np.int64) % e
    return ex.astype(np.min_scalar_type(-min(2 * e + 1, 2 ** 63))), e


def _adjoin(add, reached, g):
    """Grow the boolean mask reached, breadth-first by r + g, until it
    is closed under adding g.  When + is a group and reached a
    subgroup, it becomes the subgroup that reached and g generate."""
    fresh = np.flatnonzero(reached)
    while len(fresh):
        fresh = add[fresh, g]
        fresh = fresh[~reached[fresh]]
        reached[fresh] = True


def _additive_generators(add):
    """A greedy additive generating set S of the table's elements, in
    order: the least element not yet reached joins S, and _adjoin grows
    the reached set, from {0}, by r + g for it.  So every element is 0
    or a left-nested sum ((g1 + g2) + ...) + gm of generators.  When +
    is a group, each g at least doubles the subgroup reached, so |S| <=
    log2 of the order."""
    reached = np.zeros(len(add), dtype=bool)
    reached[0] = True
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        _adjoin(add, reached, gens[-1])
    return gens


def _first(bad):
    """The index tuple of the first True entry of bad, or None."""
    hits = np.argwhere(bad)
    return tuple(int(i) for i in hits[0]) if len(hits) else None


# ------------------------------------------------------------- the ring


class FiniteRing:
    """Tables-backed finite unital ring on element indices 0..order-1.

    Instances are immutable after construction and safe to share.  The
    one exception is derived, where other layers keep what they compute
    from the ring once (its weight table, its one-sided ideals, its
    opposite ring), keyed by the function that computes it, for the
    life of the ring.  Only the opposite ring refers back to the ring.
    """

    def __init__(self, spec, labels, add_table, mul_table, char_exponents,
                 exponent, meta=None):
        self.spec = spec
        self.labels = list(labels)
        self.order = len(self.labels)
        self.add_table = np.ascontiguousarray(add_table, dtype=ELEMENT_DTYPE)
        self.mul_table = np.ascontiguousarray(mul_table, dtype=ELEMENT_DTYPE)
        self.char_exponents = np.ascontiguousarray(char_exponents,
                                                   dtype=np.int64)
        self.exponent = int(exponent)
        self.character = GeneratingCharacter(
            tuple(self.char_exponents.tolist()), self.exponent)
        self.zero = 0
        self.one = 1

        self.meta = meta or {}
        self.derived = {}
        self._verify(self._scan_tables())

    # -- conveniences -------------------------------------------------

    @property
    def is_commutative(self):
        return self._commutative

    def __repr__(self):
        return f"FiniteRing({self.spec.text()}, order={self.order})"

    # -- construction-time verification -------------------------------

    def _scan_tables(self):
        """One pass over both tables in row blocks.  Sets neg_table, the
        units and commutativity, and returns whether addition commutes,
        for _verify to report in its order."""
        n = self.order
        add, mul = self.add_table, self.mul_table
        neg = np.empty(n, dtype=ELEMENT_DTYPE)
        unit = np.zeros(n, dtype=bool)
        commutative = add_commutes = True
        for rows in _row_blocks(n, n):
            # exactly one zero in each row: a zero at each row's
            # argmax, and as many zeros as rows
            zero = add[rows] == 0
            neg[rows] = first = zero.argmax(axis=1)
            if not (np.count_nonzero(zero) == len(first)
                    and zero[np.arange(len(first)), first].all()):
                raise RingConstructionError("additive inverses are not unique")
            _scan_units(mul, rows, unit)
            commutative = commutative and _symmetric_rows(mul, rows)
            add_commutes = add_commutes and _symmetric_rows(add, rows)
        self.neg_table = neg
        self.units_array = np.flatnonzero(unit).astype(ELEMENT_DTYPE)
        self.units = frozenset(self.units_array.tolist())
        self._commutative = commutative
        return add_commutes

    def _verify(self, add_commutes):
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
        if not char.is_additive_homomorphism(self):
            raise CharacterError("character exponent map is not additive")
        if not is_generating_character(self, char):
            raise CharacterError(
                f"character of {self.spec.text()} is not generating")
        if 1 not in self.units:
            raise RingConstructionError("1 is not a unit")

    def _check_axioms_exhaustive(self):
        """The ring axioms on every triple, proved on the additive
        generating set S of _additive_generators in n^2 |S| checks per
        law; every element is 0 or a left-nested sum of generators, and
        0 is an additive identity (checked before).
        - + is associative, by Light's test: the g for which
          (x + g) + y = x + (g + y) for all x, y are closed under +.
        - a(b + c) = ab + ac and (b + c)a = ba + ca: given that, the c
          for which a law holds for all a, b are closed under +.
        - (ab)c = a(bc): given both, each side is additive in each of
          a, b and c, so S^3 suffices."""
        add, mul = self.add_table, self.mul_table
        gens = _additive_generators(add)
        for g in gens:
            at = _first(add[add[:, g]] != add[:, add[g]])
            if at is not None:
                x, y = at
                raise RingConstructionError(
                    "addition not associative at (x + g) + y, "
                    f"(x, g, y) = ({x}, {g}, {y})")
        for g in gens:
            at = _first(mul[:, add[:, g]] != add[mul, mul[:, g][:, None]])
            if at is not None:
                a, b = at
                raise RingConstructionError(
                    "left distributivity fails at a(b + c), "
                    f"(a, b, c) = ({a}, {b}, {g})")
            at = _first(mul[add[:, g]] != add[mul, mul[g][None, :]])
            if at is not None:
                b, a = at
                raise RingConstructionError(
                    "right distributivity fails at (b + c)a, "
                    f"(a, b, c) = ({a}, {b}, {g})")
        ga, gb, gc = np.ix_(gens, gens, gens)
        at = _first(mul[mul[ga, gb], gc] != mul[ga, mul[gb, gc]])
        if at is not None:
            a, b, c = (gens[i] for i in at)
            raise RingConstructionError(
                "multiplication not associative at (ab)c, "
                f"(a, b, c) = ({a}, {b}, {c})")

    def _check_axioms_sampled(self):
        """The four laws on one fixed-seed sample of triples (a, b, c),
        gathered from the flat tables at int64 offsets x n + y; the sums
        and products of a, b and c are formed once for all four."""
        rng = np.random.default_rng(0)
        n = self.order
        add, mul = self.add_table.ravel(), self.mul_table.ravel()
        a = rng.integers(0, n, _AXIOM_SAMPLES)
        b = rng.integers(0, n, _AXIOM_SAMPLES)
        c = rng.integers(0, n, _AXIOM_SAMPLES)

        def at(table, x, y):
            return table.take(np.multiply(x, n, dtype=np.int64) + y)

        add_ab, add_bc = at(add, a, b), at(add, b, c)
        if not (at(add, add_ab, c) == at(add, a, add_bc)).all():
            raise RingConstructionError("addition not associative (sampled)")
        mul_ab, mul_bc = at(mul, a, b), at(mul, b, c)
        if not (at(mul, mul_ab, c) == at(mul, a, mul_bc)).all():
            raise RingConstructionError(
                "multiplication not associative (sampled)")
        mul_ac = at(mul, a, c)
        if not (at(mul, a, add_bc) == at(add, mul_ab, mul_ac)).all():
            raise RingConstructionError("left distributivity fails (sampled)")
        if not (at(mul, add_ab, c) == at(add, mul_ac, mul_bc)).all():
            raise RingConstructionError("right distributivity fails (sampled)")

    def _verify_exponent(self):
        e = self.exponent
        if self._scalar_multiple_nonzero(e):
            raise RingConstructionError(
                f"additive exponent {e} does not annihilate the group")
        for p in divisors(e):
            if _is_prime(p) and not self._scalar_multiple_nonzero(e // p):
                raise RingConstructionError(
                    f"additive exponent {e} is not minimal")

    def _scalar_multiple_nonzero(self, k):
        """True iff k*x != 0 for some x (k-fold addition)."""
        acc = np.zeros(self.order, dtype=ELEMENT_DTYPE)
        base = np.arange(self.order, dtype=ELEMENT_DTYPE)
        while k:
            if k & 1:
                acc = self.add_table[acc, base]
            k >>= 1
            if k:
                base = self.add_table[base, base]
        return bool((acc != 0).any())


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


def _scan_units(mul, rows, unit):
    """Set unit[x] for x in rows: x is a unit iff x y = 1 = y x for some
    y.  Each row tries its first y with x y = 1; only the rows that hold
    1 more than once try every such y."""
    hits = mul[rows] == 1
    xs = np.arange(rows.start, rows.stop)
    ys = hits.argmax(axis=1)
    first = hits[xs - rows.start, ys]
    unit[rows] = first & (mul[ys, xs] == 1)
    if np.count_nonzero(hits) > np.count_nonzero(first):
        many = np.flatnonzero(np.count_nonzero(hits, axis=1) > 1)
        i, ys = np.nonzero(hits[many])
        xs = xs[many[i]]
        unit[xs[mul[ys, xs] == 1]] = True


def _pinned_order(n, one):
    """Natural indices in identity-pinned order (zero, the identity,
    then the rest in natural order), and the inverse map."""
    perm = np.concatenate(([0, one], np.arange(1, one), np.arange(one + 1, n)))
    inv = np.empty(n, dtype=ELEMENT_DTYPE)
    inv[perm] = np.arange(n, dtype=ELEMENT_DTYPE)
    return perm, inv


def _radix_table(shape, one, row_parts, axes):
    """The n x n table, rows and columns in identity-pinned order, whose
    entry (a, b) is the natural index sum_f part_f[a, key_f(b)] in
    pinned order.  A natural index has the mixed-radix digits shape,
    most significant first, and key_f(b) is the mixed-radix value of
    b's digits on the ascending axes[f].  The parts are row_parts(rows):
    small per-row lookup tables already scaled by their radix.

    Each row block is one broadcast outer sum, in natural column
    order: part f is reshaped so that its digits sit on their own axes.
    One gather relabels the sums, and the pinned column prefix (0, one,
    then 1..one-1) is a rotation of columns 1..one.  Each partial sum is
    at most a natural index, below n <= ORDER_CAP, so the parts and
    their sums stay in the element dtype."""
    n = math.prod(shape)
    inv = _pinned_order(n, one)[1]
    table = np.empty((n, n), dtype=ELEMENT_DTYPE)
    for rows in _row_blocks(n, n):
        acc = None
        for part, digits in zip(row_parts(rows), axes):
            view = [len(part)] + [1] * len(shape)
            for d in digits:
                view[1 + d] = shape[d]
            part = part.reshape(view)
            acc = part if acc is None else acc + part
        # indices are in range by construction; clip mode writes
        # straight into the table
        np.take(inv, acc.reshape(-1, n), out=table[rows], mode="clip")
        if one > 1:
            moved = table[rows, 1:one + 1]
            moved[:] = np.roll(moved, 1, axis=1)
    return table


def _component_table(tables, comps, radix, one):
    """Table of a componentwise operation: tables[f] acts on component
    f of the elements, whose rows comps holds in pinned order, with
    place value radix[f] in the natural index, most significant first."""
    scaled = [np.asarray(tab * int(r), dtype=ELEMENT_DTYPE)
              for tab, r in zip(tables, radix)]
    return _radix_table(
        [len(tab) for tab in tables], one,
        lambda rows: [s[comps[rows, f]] for f, s in enumerate(scaled)],
        [(f,) for f in range(len(tables))])


def _realize_zm(spec):
    m = spec.m
    if m < 2:
        raise RingConstructionError("Z_m needs m >= 2")
    idx = np.arange(m, dtype=ELEMENT_DTYPE)
    # row a of a + b is the window of 0..m-1, 0..m-1 that starts at a
    twice = np.concatenate((idx, idx))
    step = twice.itemsize
    add = np.lib.stride_tricks.as_strided(twice, (m, m), (step, step)).copy()
    # a b < m^2 <= 2^30 fits in int32
    wide = idx.astype(np.int32)
    mul = np.empty((m, m), dtype=ELEMENT_DTYPE)
    for rows in _row_blocks(m, m):
        block = np.multiply.outer(wide[rows], wide)
        np.remainder(block, m, out=block)
        mul[rows] = block
    labels = [str(i) for i in range(m)]
    return labels, add, mul, idx.astype(np.int64), m, {}


def _realize_gf(spec):
    p, r = spec.p, spec.r
    if not _is_prime(p):
        raise RingConstructionError(f"{p} is not prime")
    if r < 1:
        raise RingConstructionError("extension degree must be >= 1")
    q = p ** r
    poly = spec.resolved_poly()
    if poly is not None and (len(poly) != r + 1 or poly[-1] != 1):
        raise RingConstructionError(
            f"modulus must be monic of degree {r} (got {poly})")
    if r == 1:
        labels, add, mul, exps, _, _ = _realize_zm(Zm(p))
        return labels, add, mul, exps, p, {
            "digits": np.arange(p, dtype=ELEMENT_DTYPE)[:, None]}
    if not _fp_is_irreducible(poly, p):
        raise ReduciblePolynomialError(
            f"{poly} is reducible over F_{p}")

    idx = np.arange(q, dtype=ELEMENT_DTYPE)
    digits = np.stack([(idx // p ** j) % p for j in range(r)], axis=1)
    pows = p ** np.arange(r, dtype=np.int64)

    zp = np.arange(p)
    zp_add = (zp[:, None] + zp[None, :]) % p
    # the identity x^0 is already at index 1; digit r-1 is the most
    # significant
    add = _component_table([zp_add] * r, digits[:, ::-1], pows[::-1], 1)

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

    # the digit products are formed in int64: mx is int64
    mul = np.empty((q, q), dtype=ELEMENT_DTYPE)
    for rows in _row_blocks(q, q * r):
        mul[rows] = pows @ (np.matmul(mx[rows], digits.T) % p)

    # the trace to the prime subfield is the trace of b -> a b
    exps = np.trace(mx, axis1=1, axis2=2) % p
    return ([str(i) for i in range(q)], add, mul, exps, p,
            {"digits": digits})


def _realize_mat(spec):
    m = spec.m
    if m < 1:
        raise RingConstructionError("matrix size must be >= 1")
    base = build_ring(spec.base)
    q = base.order
    mm = m * m
    n = q ** mm
    # row-major entries, first entry most significant
    radix = np.array([q ** (mm - 1 - t) for t in range(mm)], dtype=np.int64)
    # the identity has a 1 at each diagonal entry i m + i
    one = int(radix[::m + 1].sum())
    perm = _pinned_order(n, one)[0]
    entries = np.stack([(perm // radix[t]) % q for t in range(mm)],
                       axis=1).astype(ELEMENT_DTYPE)

    badd, bmul = base.add_table, base.mul_table
    add = _component_table([badd] * mm, entries, radix, one)

    # a b is a acting on each column of b: over the q^m column vectors
    # v (first entry most significant), column k of a b contributes
    # sum_i (a v)_i radix[i m + k] to the natural index, and v is the
    # value of b's entries j m + k
    vecs = np.arange(q ** m)
    vdig = [(vecs // q ** (m - 1 - j)) % q for j in range(m)]

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

    mul = _radix_table([q] * mm, one, column_parts,
                       [range(k, mm, m) for k in range(m)])

    # character: base character of the matrix trace
    tr = entries[:, 0]
    for i in range(1, m):
        tr = badd[tr, entries[:, i * m + i]]
    exps = base.char_exponents[tr]

    row_labels = [" ".join(row)
                  for row in itertools.product(base.labels, repeat=m)]
    natural = ["[" + ";".join(rows) + "]"
               for rows in itertools.product(row_labels, repeat=m)]
    labels = [natural[x] for x in perm.tolist()]
    return (labels, add, mul, exps, base.exponent,
            {"entries": entries, "base_ring": base})


def _realize_product(spec):
    if not spec.factors:
        raise RingConstructionError("product needs at least one factor")
    factors = [build_ring(f) for f in spec.factors]
    orders = [f.order for f in factors]
    t = len(factors)
    n = math.prod(orders)
    radix = np.empty(t, dtype=np.int64)
    acc = 1
    for f in range(t - 1, -1, -1):
        radix[f] = acc
        acc *= orders[f]
    one = int(radix.sum())
    perm = _pinned_order(n, one)[0]
    comps = np.stack([(perm // radix[f]) % orders[f] for f in range(t)],
                     axis=1).astype(ELEMENT_DTYPE)

    add = _component_table([f.add_table for f in factors], comps, radix, one)
    mul = _component_table([f.mul_table for f in factors], comps, radix, one)

    e = 1
    for f in factors:
        e = math.lcm(e, f.exponent)
    exps = np.zeros(n, dtype=np.int64)
    for f in range(t):
        exps += factors[f].char_exponents[comps[:, f]] * (e // factors[f].exponent)
    exps %= e

    natural = ["(" + ",".join(tup) + ")"
               for tup in itertools.product(*(f.labels for f in factors))]
    labels = [natural[x] for x in perm.tolist()]
    return (labels, add, mul, exps, e,
            {"components": comps, "factor_rings": factors})


def build_ring(spec):
    """Build the ring described by spec, with all invariants verified.
    The tables are built directly in identity-pinned order; op(spec) is
    the opposite_ring of spec's ring."""
    if isinstance(spec, OpSpec):
        return opposite_ring(build_ring(spec.base))
    order = spec.order
    if order > ORDER_CAP:
        raise CapExceededError(f"ring order {order} exceeds cap {ORDER_CAP}")
    if order < 2:
        raise RingConstructionError("ring order must be >= 2")

    if isinstance(spec, Zm):
        realized = _realize_zm(spec)
    elif isinstance(spec, GF):
        realized = _realize_gf(spec)
    elif isinstance(spec, MatRing):
        realized = _realize_mat(spec)
    elif isinstance(spec, Product):
        realized = _realize_product(spec)
    else:
        raise RingConstructionError(f"cannot build from spec {spec!r}")
    labels, add, mul, exps, e, meta = realized
    return FiniteRing(spec, labels, add, mul, exps, e, meta=meta)


def ring_from_text(text):
    return build_ring(parse_ring_spec(text))


def opposite_ring(ring):
    """The opposite ring (multiplication reversed); same element set,
    labels, character, and units.  Commutative rings are their own
    opposite and are returned unchanged; a noncommutative ring and its
    opposite are built once and keep each other in their derived."""
    if ring.is_commutative:
        return ring
    op = ring.derived.get("opposite_ring")
    if op is None:
        op = FiniteRing(OpSpec(ring.spec), ring.labels, ring.add_table,
                        ring.mul_table.T.copy(), ring.char_exponents,
                        ring.exponent, meta={})
        ring.derived["opposite_ring"] = op
        op.derived["opposite_ring"] = ring
    return op


# --------------------------------------------------- structural helpers


def order2_socle_part(ring):
    """Generators of the order-2 principal left ideals, and the subgroup
    of sums of an even number of them."""
    # x generates an order-2 left ideal iff column x of the
    # multiplication table takes exactly the values 0 and x
    n = ring.order
    idx = np.arange(n, dtype=ELEMENT_DTYPE)
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

    # every subset sum of the generators, and whether its subset is odd
    sums, odd = np.zeros(1, dtype=ELEMENT_DTYPE), np.zeros(1, dtype=bool)
    for g in gens:
        sums = np.concatenate([sums, ring.add_table[sums, g]])
        odd = np.concatenate([odd, ~odd])
    s0 = set(sums[~odd].tolist())
    expected = 1 if len(gens) <= 1 else 2 ** (len(gens) - 1)
    if len(s0) != expected:
        raise RingConstructionError(
            f"even-sum subgroup has size {len(s0)}, expected {expected}")
    return gens, frozenset(s0)

