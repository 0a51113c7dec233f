"""Ring construction, parsing, characters, and structure maps.

Ring axioms are re-derived here by brute force on small rings rather
than trusting the construction-time verifier; character values are
checked against complex exponentials.
"""

import cmath
import math

import numpy as np
import pytest
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
    build_ring,
    is_generating_character,
    opposite_ring,
    order2_socle_part,
    parse_ring_spec,
    ring_from_text,
)
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
    them and nested products, within the order cap, and sometimes the
    opposite of one, which opposite_ring names but the parser does not
    read."""
    leaves = st.one_of(st.integers(2, 64).map(Zm), st.sampled_from(FIELDS),
                       st.sampled_from(MATRIX_RINGS))
    specs = st.recursive(
        leaves,
        lambda inner: st.lists(inner, min_size=1, max_size=3).map(
            lambda factors: Product(tuple(factors))),
        max_leaves=4).filter(lambda spec: spec.order <= DEFAULT_ORDER_CAP)
    return st.one_of(specs, specs.map(OpSpec))


@settings(max_examples=200, deadline=None, database=None)
@given(nested_specs())
def test_parse_text_parse_round_trip(spec):
    text = spec.text()
    base = spec.base if isinstance(spec, OpSpec) else spec
    if base is not spec:
        assert text == f"op({base.text()})"
    parsed = parse_ring_spec(base.text())
    assert parsed == base
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


def test_order_cap():
    with pytest.raises(CapExceededError):
        build_ring(parse_ring_spec("Z8000"))
    ring = build_ring(parse_ring_spec("Z8000"), order_cap=8000)
    assert ring.order == 8000


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
