"""Ring construction, parsing, characters, and structure maps.

Ring axioms are re-derived here by brute force on small rings rather
than trusting the construction-time verifier; character values are
checked against complex exponentials, and the primality and
irreducibility helpers against sympy.
"""

import cmath
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcode.errors import (
    CapExceededError,
    CharacterError,
    ReduciblePolynomialError,
    RingConstructionError,
    SpecParseError,
)
from frobcode.rings import (
    BUILTIN_POLYS,
    DEFAULT_ORDER_CAP,
    GF,
    FiniteRing,
    GeneratingCharacter,
    MatRing,
    OpSpec,
    Product,
    Zm,
    _additive_generators,
    _fp_is_irreducible,
    _is_prime,
    _prime_power,
    build_ring,
    is_generating_character,
    opposite_ring,
    order2_socle_part,
    parse_ring_spec,
    ring_from_text,
)
from ring_oracle import cubic_axiom_failures, sympy_irreducible
from socle_oracle import gf_matrix_rank, structural_socle

ACCEPTANCE_RINGS = ["Z4", "Z6", "Z8", "Z9", "prod(Z2,Z2)", "prod(Z2,Z3)",
                    "GF(4)", "M2(GF(2))"]


# ------------------------------------------------------------- parsing


def test_parser_round_trips():
    for text, canonical in [
        ("Z4", "Z4"),
        ("GF(2^2)", "GF(2^2)"),
        ("GF(4)", "GF(2^2)"),
        ("GF(3^2,poly=2,2,1)", "GF(3^2,poly=2,2,1)"),
        ("M2(GF(2))", "M2(GF(2))"),
        ("prod(Z2,Z3)", "prod(Z2,Z3)"),
        ("prod(Z2,prod(Z2,Z3))", "prod(Z2,prod(Z2,Z3))"),
        ("op( M2(GF(4)))", "op(M2(GF(2^2)))"),
        ("prod(op(M2(GF(2))),Z3)", "prod(op(M2(GF(2))),Z3)"),
    ]:
        spec = parse_ring_spec(text)
        assert spec.text() == canonical
        again = parse_ring_spec(spec.text())
        assert again.text() == canonical


FIELDS = [GF(p) for p in (2, 3, 5, 7, 11, 13)] + [
    GF(p, r) for p, r in sorted(BUILTIN_POLYS)]
MATRIX_RINGS = [MatRing(m, f) for m in (1, 2, 3) for f in FIELDS
                if f.order ** (m * m) <= DEFAULT_ORDER_CAP]


def nested_specs():
    """Specs of the grammar: Z<m>, built-in fields, matrix rings over
    them, and nested products and opposites of those, within the order
    cap."""
    leaves = st.one_of(st.integers(2, 64).map(Zm), st.sampled_from(FIELDS),
                       st.sampled_from(MATRIX_RINGS))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(
                lambda factors: Product(tuple(factors))),
            inner.map(OpSpec)),
        max_leaves=4).filter(lambda spec: spec.order <= DEFAULT_ORDER_CAP)


@settings(max_examples=200, deadline=None, database=None)
@given(nested_specs())
def test_parse_text_parse_round_trip(spec):
    parsed = parse_ring_spec(spec.text())
    assert parsed == spec
    assert parse_ring_spec(parsed.text()) == parsed


def test_parse_errors_carry_position():
    for bad in ["", "Q4", "Z", "Z4x", "GF", "GF(6)", "GF(4^2", "M2(Z4)",
                "prod(Z2,)", "prod", "Z0", "GF(2^0)"]:
        with pytest.raises(SpecParseError) as err:
            parse_ring_spec(bad)
        assert err.value.position is not None


def test_reducible_polynomial_rejected():
    with pytest.raises(ReduciblePolynomialError):
        build_ring(parse_ring_spec("GF(2^2,poly=1,0,1)"))


@pytest.mark.parametrize("text", ["GF(2,poly=1,1,1)", "GF(3^1,poly=0,0,0,1)",
                                  "GF(5,poly=1,0)", "GF(3,poly=1)"])
def test_prime_field_modulus_must_be_monic_of_degree_1(text):
    with pytest.raises(RingConstructionError, match="monic of degree 1"):
        build_ring(parse_ring_spec(text))


def test_prime_field_takes_a_monic_modulus_of_degree_1():
    ring = build_ring(parse_ring_spec("GF(3^1,poly=1,1)"))
    field = build_ring(parse_ring_spec("GF(3)"))
    assert ring.spec.text() == "GF(3^1,poly=1,1)"
    assert (ring.add_table == field.add_table).all()
    assert (ring.mul_table == field.mul_table).all()


def test_prime_helpers_match_sympy():
    for n in range(5000):
        factors = sympy.factorint(n) if n >= 2 else {}
        assert _is_prime(n) == sympy.isprime(n), n
        want = next(iter(factors.items())) if len(factors) == 1 else None
        assert _prime_power(n) == want, n


def test_irreducibility_matches_sympy():
    checked = 0
    for p, max_degree in ((2, 4), (3, 4), (5, 4), (7, 3)):
        for r in range(1, max_degree + 1):
            for tail in itertools.product(range(p), repeat=r):
                poly = tail + (1,)
                assert _fp_is_irreducible(poly, p) == sympy_irreducible(
                    poly, p), (poly, p)
                checked += 1
    assert checked == 1329


def test_order_cap():
    with pytest.raises(CapExceededError):
        build_ring(parse_ring_spec("Z8000"))
    ring = build_ring(parse_ring_spec("Z8000"), order_cap=8000)
    assert ring.order == 8000


def test_order_past_the_element_bound_refused_before_building():
    # int16 element indices hold orders up to 2^15, whatever the cap
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError) as err:
            build_ring(parse_ring_spec("Z40000"), order_cap=10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == ("ring order 40000 exceeds 32768, the bound "
                              "of int16 element indices")
    assert "\n" not in str(err.value)
    assert peak < 2 ** 20


# --------------------------------------------------------------- axioms


@pytest.mark.parametrize("text", ACCEPTANCE_RINGS)
def test_ring_axioms_by_brute_force(text):
    ring = ring_from_text(text)
    n = ring.order
    add, mul = ring.add_table, ring.mul_table
    elements = range(n)
    assert all(add[0, x] == x for x in elements)
    assert all(mul[1, x] == x and mul[x, 1] == x for x in elements)
    for a in elements:
        for b in elements:
            assert add[a, b] == add[b, a]
            for c in elements:
                assert add[add[a, b], c] == add[a, add[b, c]]
                assert mul[mul[a, b], c] == mul[a, mul[b, c]]
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]
                assert mul[add[a, b], c] == add[mul[a, c], mul[b, c]]


@pytest.mark.parametrize("text", ACCEPTANCE_RINGS)
def test_units_are_exactly_the_invertibles(text):
    ring = ring_from_text(text)
    for x in range(ring.order):
        invertible = any(
            ring.mul_table[x, y] == 1 and ring.mul_table[y, x] == 1
            for y in range(ring.order))
        assert (x in ring.units) == invertible


def test_pinned_indices():
    for text in ACCEPTANCE_RINGS:
        ring = ring_from_text(text)
        assert (ring.add_table[0] == np.arange(ring.order)).all()
        assert (ring.mul_table[1] == np.arange(ring.order)).all()


def test_known_orders_and_units():
    ring = ring_from_text("M2(GF(2))")
    assert ring.order == 16
    assert len(ring.units) == 6
    assert ring.labels[1] == "[1 0;0 1]"
    assert ring_from_text("GF(9)").order == 9
    assert len(ring_from_text("GF(9)").units) == 8
    assert ring_from_text("prod(Z2,Z3)").order == 6


# ------------------------------------------------------------ character


def character_values(ring):
    """The character as actual complex roots of unity."""
    e = ring.exponent
    return [cmath.exp(2j * math.pi * k / e) for k in ring.char_exponents]


@pytest.mark.parametrize("text", ACCEPTANCE_RINGS)
def test_character_is_multiplicative_on_addition(text):
    ring = ring_from_text(text)
    chi = character_values(ring)
    for a in range(ring.order):
        for b in range(ring.order):
            got = chi[ring.add_table[a, b]]
            want = chi[a] * chi[b]
            assert abs(got - want) < 1e-9


@pytest.mark.parametrize("text", ACCEPTANCE_RINGS)
def test_character_sum_vanishes(text):
    # summing a nontrivial character over the additive group gives zero
    ring = ring_from_text(text)
    chi = character_values(ring)
    assert abs(sum(chi)) < 1e-9


def test_known_character_exponents():
    assert ring_from_text("Z4").char_exponents.tolist() == [0, 1, 2, 3]
    assert ring_from_text("GF(4)").char_exponents.tolist() == [0, 0, 1, 1]
    assert ring_from_text("Z4").exponent == 4
    assert ring_from_text("GF(4)").exponent == 2
    assert ring_from_text("prod(Z2,Z3)").exponent == 6


def test_non_generating_character_detected():
    z4 = ring_from_text("Z4")
    # x -> 2x mod 4 is an additive character whose kernel {0, 2} is an
    # ideal, so it cannot be generating
    bad = GeneratingCharacter((0, 2, 0, 2), 4)
    assert bad.is_additive_homomorphism(z4)
    assert not is_generating_character(z4, bad)
    with pytest.raises(CharacterError):
        FiniteRing(z4.spec, z4.labels, z4.add_table, z4.mul_table,
                   (0, 2, 0, 2), 4)


def test_corrupted_table_rejected():
    z6 = ring_from_text("Z6")
    mul = z6.mul_table.copy()
    mul[2, 3] = 1
    with pytest.raises((RingConstructionError, CharacterError)):
        FiniteRing(z6.spec, z6.labels, z6.add_table, mul,
                   tuple(int(v) for v in z6.char_exponents), z6.exponent)


FAULT_RINGS = ["Z4", "Z6", "Z8", "GF(4)", "M2(GF(2))", "prod(Z2,Z2)",
               "prod(Z2,Z4)"]
# the laws a construction-time axiom failure names, and each law on
# its named witness
AXIOM_LAWS = {
    "addition not associative": lambda add, mul, x, g, y:
        add[add[x, g], y] == add[x, add[g, y]],
    "left distributivity fails": lambda add, mul, a, b, c:
        mul[a, add[b, c]] == add[mul[a, b], mul[a, c]],
    "right distributivity fails": lambda add, mul, a, b, c:
        mul[add[b, c], a] == add[mul[b, a], mul[c, a]],
    "multiplication not associative": lambda add, mul, a, b, c:
        mul[mul[a, b], c] == mul[a, mul[b, c]],
}


def _laws_checked_before_the_axioms(add, mul):
    """0 is an additive identity with unique inverses, + commutes, 1 is
    a multiplicative identity and 0 annihilates."""
    idx = np.arange(len(add))
    return bool((add[0] == idx).all() and ((add == 0).sum(axis=1) == 1).all()
                and (add == add.T).all() and (mul[1] == idx).all()
                and (mul[:, 1] == idx).all() and (mul[0] == 0).all()
                and (mul[:, 0] == 0).all())


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_axiom_faults_match_the_cubic_oracle(data):
    # an isomorphic relabelling (fixing 0 and 1) of a small ring, with
    # mul entries and symmetric add pairs overwritten
    ring = ring_from_text(data.draw(st.sampled_from(FAULT_RINGS)))
    n = ring.order
    perm = np.array([0, 1] + data.draw(st.permutations(range(2, n))))
    inv = np.argsort(perm)
    add = inv[ring.add_table[np.ix_(perm, perm)]].astype(np.int32)
    mul = inv[ring.mul_table[np.ix_(perm, perm)]].astype(np.int32)
    entry = st.integers(0, n - 1)
    for table, a, b, v in data.draw(st.lists(
            st.tuples(st.sampled_from(["add", "mul"]), entry, entry, entry),
            max_size=3)):
        if table == "mul":
            mul[a, b] = v
        else:
            add[a, b] = add[b, a] = v
    exps = tuple(int(e) for e in ring.char_exponents[perm])
    try:
        FiniteRing(ring.spec, ring.labels, add, mul, exps, ring.exponent)
        error = None
    except RingConstructionError as exc:
        error = str(exc)
    except CharacterError:
        error = None
    if not _laws_checked_before_the_axioms(add, mul):
        assert error is not None
        return
    law = next((name for name in AXIOM_LAWS
                if error and error.startswith(name)), None)
    # the laws are proved in order: + associative, both distributive
    # laws, * associative; the first that fails on some triple is named
    failed = cubic_axiom_failures(add, mul)
    for laws in (["addition not associative"],
                 ["left distributivity fails", "right distributivity fails"],
                 ["multiplication not associative"]):
        if failed & set(laws):
            assert law in failed & set(laws)
            break
    else:
        assert law is None
    if law is not None:
        assert not AXIOM_LAWS[law](add, mul, *_witness(error))


def _witness(error):
    """The triple an axiom failure message names."""
    return [int(v) for v in re.search(
        r"= \((\d+), (\d+), (\d+)\)$", error).groups()]


@pytest.mark.parametrize("law,failed,twist", [
    # bilinear, so both distributive laws hold
    ("multiplication not associative", {"multiplication not associative"},
     lambda bit, a, b: bit(a, 1) & bit(b, 2)),
    # additive in b but quadratic in a
    ("right distributivity fails",
     {"right distributivity fails", "multiplication not associative"},
     lambda bit, a, b: bit(a, 1) & bit(a, 3) & bit(b, 2)),
])
def test_twisted_multiplication_names_its_law(law, failed, twist):
    # M2(GF(2)) with the product ab moved by a fixed z wherever twist
    # holds on the coordinates of a and b over the additive generators,
    # which form a basis of (Z2)^4 with 1 first; 0 and 1 stay identities
    ring = ring_from_text("M2(GF(2))")
    add = ring.add_table
    gens = _additive_generators(add)
    coords = np.zeros(ring.order, dtype=int)
    for mask in range(1 << len(gens)):
        x = 0
        for i, g in enumerate(gens):
            if mask >> i & 1:
                x = add[x, g]
        coords[x] = mask

    def bit(x, i):
        return coords[x] >> i & 1

    mul = ring.mul_table.copy()
    for a in range(ring.order):
        for b in range(ring.order):
            if twist(bit, a, b):
                mul[a, b] = add[mul[a, b], gens[3]]
    assert cubic_axiom_failures(add, mul) == failed
    with pytest.raises(RingConstructionError) as info:
        FiniteRing(ring.spec, ring.labels, add, mul,
                   tuple(int(e) for e in ring.char_exponents), ring.exponent)
    error = str(info.value)
    assert error.startswith(law)
    assert not AXIOM_LAWS[law](add, mul, *_witness(error))


@pytest.mark.parametrize("text", ACCEPTANCE_RINGS + [
    "Z32", "GF(8)", "M2(GF(3))", "M2(GF(4))", "prod(Z4,Z2,Z3)"])
def test_additive_generators_reach_the_whole_ring(text):
    ring = ring_from_text(text)
    gens = _additive_generators(ring.add_table)
    reached, fresh = {0}, {0}
    while fresh:
        fresh = {int(ring.add_table[r, g]) for r in fresh for g in gens}
        fresh -= reached
        reached |= fresh
    assert reached == set(range(ring.order))
    assert 2 ** len(gens) <= ring.order


# ------------------------------------------------------- opposite rings


def test_opposite_ring_transposes_multiplication():
    ring = ring_from_text("M2(GF(2))")
    op = opposite_ring(ring)
    assert (op.mul_table == ring.mul_table.T).all()
    assert (op.add_table == ring.add_table).all()
    assert opposite_ring(op).mul_table.tolist() == ring.mul_table.tolist()


def test_opposite_of_commutative_is_itself():
    z6 = ring_from_text("Z6")
    assert opposite_ring(z6) is z6


def test_op_spec_builds_the_opposite_ring():
    ring = ring_from_text("M2(GF(2))")
    op = ring_from_text("op(M2(GF(2)))")
    assert op.spec.text() == "op(M2(GF(2)))"
    assert op.mul_table.tolist() == ring.mul_table.T.tolist()
    assert op.labels == ring.labels
    # a commutative base, and the opposite of an opposite, report the
    # text of the ring they build
    assert ring_from_text("op(Z6)").spec.text() == "Z6"
    twice = ring_from_text("op(op(M2(GF(2))))")
    assert twice.spec.text() == "M2(GF(2))"
    assert twice.mul_table.tolist() == ring.mul_table.tolist()


# ---------------------------------------------------------------- socle


def test_structural_socle_values():
    assert sorted(structural_socle(ring_from_text("Z4"))) == [0, 2]
    assert sorted(structural_socle(ring_from_text("Z8"))) == [0, 4]
    assert sorted(structural_socle(ring_from_text("Z9"))) == [0, 3, 6]
    z6 = ring_from_text("Z6")
    assert sorted(structural_socle(z6)) == list(range(6))
    g4 = ring_from_text("GF(4)")
    assert sorted(structural_socle(g4)) == list(range(4))


def test_order2_socle_part():
    # the even-sum subgroup of the order-2 socle generators is exactly
    # the zero-weight set seen elsewhere
    gens, part = order2_socle_part(ring_from_text("Z4"))
    assert gens == [2] and part == {0}
    gens, part = order2_socle_part(ring_from_text("prod(Z2,Z2)"))
    assert len(gens) == 2 and len(part) == 2 and 0 in part


# ------------------------------------------------- matrix rank oracle


def test_gf_matrix_rank_against_row_space_size():
    from frobcode.spans import row_space

    ring = ring_from_text("GF(4)")
    rng = np.random.default_rng(0)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        mat = rng.integers(0, 4, size=(m, n)).astype(np.int32)
        rank = gf_matrix_rank(ring, mat)
        space = row_space(ring, mat)
        assert len(space) == 4 ** rank
