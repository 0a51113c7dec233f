"""Exact homogeneous weights against the floating-point character-sum
oracle, frozen small-ring values, and the weight identity layer.

The oracle evaluates w(x) = 1 - (1/|units|) * sum of chi(xu) over units
with complex exponentials; the library value must land within 1e-9 of
it while being an exact rational.
"""

import cmath
import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcode.errors import IdentityCheckError
from frobcode.homweight import (
    _fixing_unit_count,
    _one_sided_ideals,
    _sampled_correlation_vectors,
    all_one_sided_ideals,
    check_correlation_ideal,
    check_coset_sums,
    check_unit_invariance,
    check_zero_set,
    identity_suite,
    ideal_correlation,
    sum_of_squares_check,
    weight_table,
)
from frobcode.rings import order2_socle_part, ring_from_text
from socle_oracle import (
    gf_matrix_rank,
    socle_rank_data,
    structural_socle,
    whom_on_socle,
)

RINGS = ["Z4", "Z6", "Z8", "Z9", "prod(Z2,Z2)", "prod(Z2,Z3)", "GF(4)",
         "M2(GF(2))", "GF(8)", "GF(9)", "Z12", "prod(Z4,Z3)"]


def oracle_weight(ring, x):
    """Character-sum evaluation in floating point."""
    e = ring.exponent
    units = sorted(ring.units)
    total = 0.0 + 0.0j
    for u in units:
        k = int(ring.char_exponents[ring.mul_table[x, u]])
        total += cmath.exp(2j * math.pi * k / e)
    return 1.0 - (total / len(units)).real, abs((total / len(units)).imag)


@pytest.mark.parametrize("text", RINGS)
def test_exact_weights_match_float_oracle(text):
    ring = ring_from_text(text)
    table = weight_table(ring)
    for x in range(ring.order):
        approx, imag = oracle_weight(ring, x)
        assert imag < 1e-9
        assert abs(float(table.value(x)) - approx) < 1e-9


def test_frozen_weight_tables():
    def values(text):
        ring = ring_from_text(text)
        table = weight_table(ring)
        return [table.value(x) for x in range(ring.order)]

    assert values("Z4") == [0, 1, 2, 1]
    assert values("Z6") == [0, Fraction(1, 2), Fraction(3, 2), 2,
                            Fraction(3, 2), Fraction(1, 2)]
    assert values("Z8") == [0, 1, 1, 1, 2, 1, 1, 1]
    assert values("Z9") == [0, 1, 1, Fraction(3, 2), 1, 1,
                            Fraction(3, 2), 1, 1]
    # elements of prod(Z2,Z2) sit in the order (0,0), (1,1), (0,1), (1,0)
    assert values("prod(Z2,Z2)") == [0, 0, 2, 2]


@pytest.mark.parametrize("q,text", [(2, "GF(2)"), (3, "GF(3)"),
                                    (4, "GF(4)"), (5, "GF(5)"),
                                    (8, "GF(8)"), (9, "GF(9)")])
def test_fields_are_scaled_hamming(q, text):
    ring = ring_from_text(text)
    table = weight_table(ring)
    assert table.value(0) == 0
    expected = Fraction(q, q - 1)
    for x in range(1, q):
        assert table.value(x) == expected


def test_matrix_ring_weights_by_rank():
    ring = ring_from_text("M2(GF(2))")
    base = ring_from_text("GF(2)")
    table = weight_table(ring)
    by_rank = {0: Fraction(0), 1: Fraction(4, 3), 2: Fraction(2, 3)}
    for x in range(16):
        # the label carries the entries; recompute the rank from it to
        # stay independent of the internal index layout
        label = ring.labels[x]
        entries = [int(t) for t in label.replace("[", "").replace("]", "")
                   .replace(";", " ").split()]
        mat = np.array(entries, dtype=np.int32).reshape(2, 2)
        rank = gf_matrix_rank(base, mat)
        assert table.value(x) == by_rank[rank]


def test_value_and_word_numerator_accessors():
    ring = ring_from_text("Z4")
    table = weight_table(ring)
    assert table.value(2) == 2
    assert table.word_numerator(
        np.array([[1, 2, 3]], dtype=np.int32)).tolist() \
        == [4 * table.denominator]


def assert_socle_closed_form(ring):
    table = weight_table(ring)
    socle = set(structural_socle(ring))
    factors, ranks = socle_rank_data(ring)
    for x in range(ring.order):
        if x not in socle:
            assert table.value(x) == 1
            assert ranks[x] is None
        else:
            assert table.value(x) == whom_on_socle(factors, ranks[x])


@pytest.mark.parametrize("text", RINGS)
def test_socle_closed_form_agrees(text):
    assert_socle_closed_form(ring_from_text(text))


# factors of the random products below, with their orders: every
# construction the grammar builds, kept small so that the products stay
# quick to build
PRODUCT_FACTORS = {"Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6, "Z8": 8, "Z9": 9,
                   "GF(4)": 4, "GF(5)": 5, "M2(GF(2))": 16}


@settings(max_examples=25, deadline=None, database=None)
@given(st.lists(st.sampled_from(sorted(PRODUCT_FACTORS)), min_size=1,
                max_size=3).filter(
    lambda fs: math.prod(PRODUCT_FACTORS[f] for f in fs) <= 512))
def test_product_weight_tables_match_socle_closed_form(factors):
    assert_socle_closed_form(ring_from_text(f"prod({','.join(factors)})"))


def test_zero_set_is_order2_socle_part():
    for text in RINGS:
        ring = ring_from_text(text)
        table = weight_table(ring)
        _, part = order2_socle_part(ring)
        assert table.zero_set() == part
        check_zero_set(ring, table)


@pytest.mark.parametrize("text", RINGS)
def test_identity_suite_green(text):
    names = [name for name, _ in identity_suite(ring_from_text(text),
                                                full=True)]
    assert names == ["zero-set", "unit-invariance", "coset-sums",
                     "ideal-correlation", "sum-of-squares",
                     "word-correlation-k1", "word-correlation-k2"]


def test_sum_of_squares_frozen():
    z4 = ring_from_text("Z4")
    table = weight_table(z4)
    total = sum(table.value(x) ** 2 for x in range(4))
    assert total == 6
    assert total == 4 * (1 + Fraction(1, 2))
    sum_of_squares_check(z4, table)
    g4 = ring_from_text("GF(4)")
    t4 = weight_table(g4)
    assert sum(t4.value(x) ** 2 for x in range(4)) == Fraction(16, 3)


def test_ideal_correlation_zero_image_branch():
    # over Z4 take the ideal {0, 2} and multiplier 2: the image is {0},
    # so the sum collapses to |I| w(s) rather than the plain |I|
    z4 = ring_from_text("Z4")
    ideal = np.array([0, 2], dtype=np.int64)
    lhs, rhs, den = ideal_correlation(z4, weight_table(z4), ideal,
                                      np.array([2, 1]),
                                      _fixing_unit_count(z4, ideal))
    assert Fraction(int(lhs[0, 2]), den) == Fraction(int(rhs[0, 2]), den) \
        == 4
    assert Fraction(int(rhs[0, 2]), den) != len(ideal)
    # shifting by a unit lands on 2 * w(1) = 2
    assert Fraction(int(lhs[0, 1]), den) == Fraction(int(rhs[0, 1]), den) \
        == 2
    # an injective multiplier exercises the unit-counting branch
    assert lhs[1, 0] == rhs[1, 0]
    check_correlation_ideal(z4)


def test_ideal_enumeration():
    z6 = ring_from_text("Z6")
    ideals = all_one_sided_ideals(z6, "left")
    as_sets = [set(i.tolist()) for i in ideals]
    assert as_sets == [{0, 3}, {0, 2, 4}, {0, 1, 2, 3, 4, 5}]
    m2 = ring_from_text("M2(GF(2))")
    left = all_one_sided_ideals(m2, "left")
    right = all_one_sided_ideals(m2, "right")
    # the full ring plus the two proper column/row spaces per side
    assert len(left) == len(right) == 4


def test_ideals_built_once_per_ring_and_side():
    m2 = ring_from_text("M2(GF(2))")
    for side in ("left", "right"):
        cached = all_one_sided_ideals(m2, side)
        assert [i.tolist() for i in cached] \
            == [i.tolist() for i in _one_sided_ideals(m2, side)]
        again = all_one_sided_ideals(m2, side)
        assert all(a is b for a, b in zip(again, cached))
        with pytest.raises(ValueError):
            cached[0][0] = 1
        # the returned list is the caller's own
        cached.clear()
        assert len(all_one_sided_ideals(m2, side)) == len(again)


def test_cached_table_and_ideals_let_their_ring_go():
    # the cached table once held its ring, which kept the weak key, and
    # the ideals cached with it, alive for the life of the process
    m2 = ring_from_text("M2(GF(2))")
    table = weight_table(m2)
    assert table.ring is m2
    for side in ("left", "right"):
        all_one_sided_ideals(m2, side)
    ring = weakref.ref(m2)
    del m2
    gc.collect()
    assert ring() is None
    assert table.ring is None


def test_fault_injection_breaks_coset_sums():
    z4 = ring_from_text("Z4")
    table = weight_table(z4)
    for u in sorted(z4.units):
        table = table.with_bumped_numerator(u, 1)
    check_zero_set(z4, table)
    check_unit_invariance(z4, table)
    with pytest.raises(IdentityCheckError) as err:
        check_coset_sums(z4, table)
    assert "ideal" in err.value.witness


def test_coset_sums_frozen_example():
    # over Z6 the ideal {0, 3} translated by 1 sums to w(1) + w(4) =
    # 1/2 + 3/2 = 2, the ideal size
    z6 = ring_from_text("Z6")
    table = weight_table(z6)
    assert table.value(1) + table.value(4) == 2
    check_coset_sums(z6, table)


def test_sampled_draws_held_in_arrays():
    # 50000 draws (g, h, s) as one Python tuple each took 25 MiB on Z4
    # at k = 2; in preallocated int16 arrays with blocked words, 9 MiB
    z4 = ring_from_text("Z4")
    table = weight_table(z4)
    tracemalloc.start()
    try:
        _sampled_correlation_vectors(z4, 2, table, 50000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_sampled_kernel_working_set():
    # 200 draws at k = 2 on M2(GF(4)), 65536 messages each: forming
    # both word stacks per block peaks at 7.0 MiB, summing through the
    # weighted addition table in half-size blocks at 3.6 MiB
    m2 = ring_from_text("M2(GF(4))")
    table = weight_table(m2)
    tracemalloc.start()
    try:
        _sampled_correlation_vectors(m2, 2, table, 200, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
