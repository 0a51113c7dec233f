"""Blocked ring-table builders and construction checks.

`tests/ring_oracle.py` keeps the per-row builders the blocked passes
replaced, with int32 tables.  Every table, label, character exponent
and derived array must equal the oracle's in value, for any row-block
size, and every array of ring elements must have the element dtype
(int16); the construction checks must report the same faults with the
same messages when the fault sits in the last row block.
"""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobcode import rings
from frobcode.errors import CharacterError, RingConstructionError
from frobcode.homweight import all_one_sided_ideals
from frobcode.rings import (
    ELEMENT_DTYPE,
    FiniteRing,
    GeneratingCharacter,
    Product,
    Zm,
    build_ring,
    is_generating_character,
    order2_socle_part,
    parse_ring_spec,
    ring_from_text,
)

from ring_oracle import (greedy_additive_generators, oracle_ring,
                         pairwise_one_sided_ideals, two_sided_units)

ORACLE_RINGS = ["Z2", "Z32", "Z4096", "GF(2)", "GF(4)", "GF(8)", "GF(9)",
                "GF(16)", "M2(GF(2))", "M2(GF(3))", "M2(GF(4))", "M3(GF(2))",
                "M2(GF(8))", "prod(Z4,Z2)", "prod(GF(4),M2(GF(2)))",
                "prod(Z2,Z2,Z2)"]
FACTORS = ["Z2", "Z3", "Z4", "Z6", "Z9", "GF(4)", "GF(8)", "GF(9)",
           "GF(3^2,poly=2,2,1)", "M2(GF(2))", "M1(GF(3))"]


def assert_matches_oracle(ring, want=None):
    want = oracle_ring(ring.spec) if want is None else want
    for name in ("add_table", "mul_table", "neg_table", "units_array"):
        got, expected = getattr(ring, name), getattr(want, name)
        assert got.dtype == ELEMENT_DTYPE, name
        assert np.array_equal(got, expected), name
    assert ring.char_exponents.dtype == want.char_exponents.dtype
    assert np.array_equal(ring.char_exponents, want.char_exponents)
    assert ring.exponent == want.exponent
    assert ring.labels == want.labels
    assert ring.is_commutative == want.is_commutative
    for key, expected in want.meta.items():
        assert ring.meta[key].dtype == ELEMENT_DTYPE, key
        assert np.array_equal(ring.meta[key], expected), key


@pytest.mark.parametrize("text", ORACLE_RINGS)
def test_tables_match_per_row_oracle(text):
    assert_matches_oracle(ring_from_text(text))


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3),
       st.integers(1, 64), st.integers(1, 16))
def test_products_match_oracle_for_any_block(factors, block_rows, tile):
    spec = Product(tuple(parse_ring_spec(f) for f in factors))
    assume(spec.order <= 256)
    with mock.patch.object(rings, "BLOCK_ENTRIES", block_rows * spec.order), \
            mock.patch.object(rings, "_TILE", tile):
        ring = build_ring(spec)
    assert_matches_oracle(ring)


BUILDER_SPECS = st.one_of(
    st.integers(2, 300).map(Zm),
    st.sampled_from(["GF(2)", "GF(3)", "GF(4)", "GF(8)", "GF(9)", "GF(16)",
                     "GF(3^2,poly=2,2,1)", "GF(5^2,poly=2,1,1)",
                     "M1(GF(3))", "M1(GF(8))", "M2(GF(2))", "M2(GF(3))",
                     "M2(GF(4))", "M3(GF(2))"]).map(parse_ring_spec))


@functools.lru_cache(maxsize=None)
def cached_oracle(spec):
    return oracle_ring(spec)


@settings(max_examples=40, deadline=None, database=None)
@given(BUILDER_SPECS, st.integers(1, 64), st.integers(1, 16))
def test_every_builder_matches_oracle_for_any_block(spec, block_rows, tile):
    # row blocks down to one row put block boundaries inside the outer
    # sums, the relabelling and the pinned column move of every builder
    with mock.patch.object(rings, "BLOCK_ENTRIES", block_rows * spec.order), \
            mock.patch.object(rings, "_TILE", tile):
        ring = build_ring(spec)
    assert_matches_oracle(ring, cached_oracle(spec))


# ------------------------------------------------------------- unit scan


def scanned_units(mul, block_rows):
    """units_array of FiniteRing's table scan on mul, in row blocks of
    block_rows rows, with a valid add table beside it."""
    n = len(mul)
    scan = object.__new__(FiniteRing)
    scan.order = n
    scan.add_table = ring_from_text(f"Z{n}").add_table
    scan.mul_table = np.ascontiguousarray(mul, dtype=ELEMENT_DTYPE)
    with mock.patch.object(rings, "BLOCK_ENTRIES", block_rows * n):
        scan._scan_tables()
    return scan.units_array


def corrupted_z8(*entries):
    mul = ring_from_text("Z8").mul_table.copy()
    for x, y, v in entries:
        mul[x, y] = v
    return mul


@pytest.mark.parametrize("mul", [
    # row 3 holds 1 at y = 2 (2 * 3 = 6) before y = 3 (3 * 3 = 1)
    corrupted_z8((3, 2, 1)),
    # row 2 holds 1 twice, and neither y gives y 2 = 1
    corrupted_z8((2, 5, 1), (2, 6, 1)),
    # 2 * 5 = 1 but 5 * 2 = 2; 6 * 7 = 1 = 7 * 6 with 7 * 7 still 1
    corrupted_z8((2, 5, 1)),
    corrupted_z8((6, 7, 1), (7, 6, 1)),
    # the last row holds 1 twice, the second hit two-sided
    corrupted_z8((7, 0, 1), (0, 7, 3)),
], ids=["second-y-two-sided", "twice-one-sided", "one-sided",
        "new-two-sided", "last-row"])
@pytest.mark.parametrize("block_rows", [1, 3, 8])
def test_unit_scan_matches_two_sided_oracle(mul, block_rows):
    assert scanned_units(mul, block_rows).tolist() \
        == two_sided_units(mul).tolist()


# ------------------------------------------------ block-boundary faults


def small_blocks(ring, block_rows=7, tile=4):
    """Row blocks of block_rows rows for this ring and symmetry tiles of
    tile entries; on 16 elements the last block is rows 14 and 15."""
    return mock.patch.multiple(rings, BLOCK_ENTRIES=block_rows * ring.order,
                               _TILE=tile)


def raised(ring, add=None, exps=None):
    """(type, message) of the error FiniteRing raises on the tables."""
    add = ring.add_table if add is None else add
    exps = ring.char_exponents if exps is None else exps
    with pytest.raises((RingConstructionError, CharacterError)) as err:
        FiniteRing(ring.spec, ring.labels, add, ring.mul_table, exps,
                   ring.exponent)
    return type(err.value), str(err.value)


def last_block_fault(ring, value_for):
    """A copy of the add table whose entry (n-1, n-2) is replaced by
    value_for(entry): both rows lie in the last row block, so only
    that block compares the pair with its transpose."""
    add = ring.add_table.copy()
    n = ring.order
    add[n - 1, n - 2] = value_for(int(add[n - 1, n - 2]))
    return add


@pytest.mark.parametrize("default_blocks", [True, False])
def test_faults_in_last_block_keep_their_messages(default_blocks):
    ring = ring_from_text("M2(GF(2))")
    assert ring.add_table[-1, -2] != 0
    exps = ring.char_exponents.copy()
    exps[-1] = (exps[-1] + 1) % ring.exponent
    z8 = ring_from_text("Z8")
    cases = [
        (ring, {"add": last_block_fault(ring, lambda v: 0)},
         (RingConstructionError, "additive inverses are not unique")),
        (ring, {"add": last_block_fault(ring, lambda v: v % 15 + 1)},
         (RingConstructionError, "addition is not commutative")),
        (ring, {"exps": exps},
         (CharacterError, "character exponent map is not additive")),
        # x -> 2x is additive, but its kernel holds the ideal {0, 4}
        (z8, {"exps": 2 * np.arange(8) % 8},
         (CharacterError, "character of Z8 is not generating")),
    ]
    for base, corruption, expected in cases:
        if default_blocks:
            assert raised(base, **corruption) == expected
        else:
            with small_blocks(base):
                assert raised(base, **corruption) == expected


def test_character_predicates_agree_across_blocks():
    z8 = ring_from_text("Z8")
    for exps in (tuple(range(8)), tuple(2 * x % 8 for x in range(8)),
                 (0, 1, 2, 3, 4, 5, 6, 0)):
        char = GeneratingCharacter(exps, 8)
        want = (char.is_additive_homomorphism(z8),
                is_generating_character(z8, char))
        for block_rows in (1, 3, 7):
            with small_blocks(z8, block_rows, 3):
                got = (char.is_additive_homomorphism(z8),
                       is_generating_character(z8, char))
            assert got == want


# ------------------------------------------------------- memory ceiling


@pytest.mark.parametrize("text", ["M2(GF(8))", "Z4096"])
def test_build_peak_memory(text):
    tracemalloc.start()
    try:
        ring = ring_from_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ring.order == 4096
    # two int16 tables of 32 MiB each, plus row blocks of working space
    assert peak < 96 * 2 ** 20


# --------------------------------------------------------------- socle


def unique_column_gens(ring):
    """Order-2 ideal generators by one np.unique per column."""
    return [x for x in range(1, ring.order)
            if np.unique(ring.mul_table[:, x]).tolist() == [0, x]]


@pytest.mark.parametrize("text", ["Z4", "Z8", "GF(4)", "M2(GF(2))",
                                  "prod(Z2,Z2)", "prod(Z4,Z2)",
                                  "prod(Z2,Z2,Z2)", "prod(Z2,GF(4))"])
def test_order2_socle_gens_match_per_column_oracle(text):
    ring = ring_from_text(text)
    gens, part = order2_socle_part(ring)
    assert gens == unique_column_gens(ring)
    with small_blocks(ring):
        assert order2_socle_part(ring) == (gens, part)


@pytest.mark.parametrize("text", [
    text for text in ORACLE_RINGS
    if parse_ring_spec(text).order <= rings._FULL_AXIOM_LIMIT])
def test_additive_generators_match_all_generators_closure(text):
    # each reached set is a subgroup, so closing it under the newest
    # generator alone reaches what closing it under all of them does
    add = ring_from_text(text).add_table
    assert rings._additive_generators(add) \
        == greedy_additive_generators(add)


# -------------------------------------------------------------- ideals


@pytest.mark.parametrize("text", ORACLE_RINGS)
def test_ideal_sums_grown_match_pairwise_oracle(text):
    # each ideal sum I + J grows from I instead of taking the unique
    # pairwise sums; same ideals, same order, same element dtype
    ring = ring_from_text(text)
    for side in ("left", "right"):
        got = all_one_sided_ideals(ring, side)
        want = pairwise_one_sided_ideals(ring, side)
        assert [(i.dtype, i.tolist()) for i in got] \
            == [(i.dtype, i.tolist()) for i in want]
