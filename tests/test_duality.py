"""Dual two-weight codes: frozen small examples, the full certification
pipeline, the double dual, and agreement with the R^n oracle."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dual_oracle import oracle_dual_report
from frobcode.codes import build_code, two_weight_profile
from frobcode.duality import (
    _check_message_classification,
    _column_module,
    build_dual,
    dual_pipeline,
)
from frobcode.errors import (
    CapExceededError,
    IdentityCheckError,
    PreconditionError,
)
from frobcode.homweight import weight_table
from frobcode.rings import opposite_ring, ring_from_text
from frobcode.search import generator_for_record, search_modular_codes


def make(text, rows):
    ring = ring_from_text(text)
    return ring, build_code(ring, np.array(rows, dtype=np.int32))


def test_smaller_class_matrix_frozen():
    # the dual's generator is the transposed smaller-weight matrix m1
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    m1 = build_dual(code).generator.T
    assert [tuple(r) for r in m1.tolist()] == [
        (0, 1), (0, 2), (1, 0), (2, 0)]


def test_dual_histogram_frozen():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    dual = build_dual(code)
    assert dual.weight_distribution == {
        Fraction(0): 1, Fraction(3): 4, Fraction(6): 4}
    assert dual.n == 4
    assert dual.k == 2


def test_pipeline_report_frozen():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    report = dual_pipeline(code)
    assert report.dual_size == 9
    assert (report.w1_dual, report.w2_dual) == (3, 6)
    assert (report.b1_dual, report.b2_dual) == (4, 4)
    assert report.srg.as_tuple() == (9, 4, 1, 2)
    assert not report.trivial
    assert report.kernel_size == 1
    assert report.class_counts == (1, 4, 4)


def test_double_dual_parameters_repeat():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    dual = build_dual(code)
    double = build_dual(dual)
    p1 = two_weight_profile(dual)
    p2 = two_weight_profile(double)
    assert (p1.w1, p1.w2, p1.size) == (p2.w1, p2.w2, p2.size)
    assert dual_pipeline(dual).srg.as_tuple() == (9, 4, 1, 2)


def test_trivial_code_dual_is_trivial():
    ring, code = make("Z4", [[1, 3]])
    dual = build_dual(code)
    assert dual.weight_distribution == {
        Fraction(0): 1, Fraction(2): 2, Fraction(4): 1}
    report = dual_pipeline(code)
    assert report.trivial
    assert report.srg.as_tuple() == (4, 2, 0, 2)


def test_gf4_dual():
    ring, code = make("GF(4)", [[1, 0], [0, 1]])
    report = dual_pipeline(code)
    assert report.srg.as_tuple() == (16, 6, 2, 2)
    assert (report.w1_dual, report.w2_dual) == (4, 8)


def test_pipeline_preconditions():
    ring, one_weight = make("Z4", [[1, 2, 3]])
    with pytest.raises(PreconditionError):
        dual_pipeline(one_weight)
    ring, fat_zero = make("prod(Z2,Z2)", [[1, 0], [0, 1]])
    assert fat_zero.b0 == 4
    with pytest.raises(PreconditionError):
        dual_pipeline(fat_zero)
    ring, non_modular = make("Z4", [[1, 1, 1, 2]])
    with pytest.raises(PreconditionError):
        dual_pipeline(non_modular)


def test_opposite_ring_weights_match():
    ring = ring_from_text("M2(GF(2))")
    op = opposite_ring(ring)
    assert (weight_table(ring).numerators
            == weight_table(op).numerators).all()
    assert weight_table(ring).denominator == weight_table(op).denominator


def test_classification_counts_fibres():
    # Z4 [1 3]: the column module is all of Z4, so each z has a fibre of
    # 4**2 / 4 = 4 message vectors
    ring, code = make("Z4", [[1, 3]])
    module = _column_module(code, None)
    assert module.elements.tolist() == [[0], [1], [2], [3]]
    assert module.fibre == 4
    report = dual_pipeline(code)
    assert report.kernel_size == 4
    assert report.class_counts == (4, 8, 4)


def test_classification_witness_is_a_column_module_element():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    module = _column_module(code, None)
    report = dual_pipeline(code)
    with pytest.raises(IdentityCheckError) as info:
        _check_message_classification(
            code, module, report.w1_dual + 1, report.w2_dual)
    assert set(info.value.witness) == {"z", "weight"}
    assert len(info.value.witness["z"]) == code.k


def test_cap_bounds_the_column_module():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    with pytest.raises(CapExceededError):
        dual_pipeline(code, cap=8)
    assert dual_pipeline(code, cap=9).dual_size == 9


# ------------------------------------------------ agreement with oracle

# (ring, k, n_max): every two-weight record with b0 = 1 of the search is
# checked; n_max keeps order**n within the default cap for the oracle.
ORACLE_CASES = [
    ("GF(2)", 2, 6), ("GF(3)", 2, 6), ("GF(4)", 2, 6), ("Z4", 2, 6),
    ("Z8", 1, 6), ("Z9", 1, 6), ("prod(GF(2),GF(3))", 1, 7),
    ("M2(GF(2))", 1, 5),
]


@lru_cache(maxsize=None)
def clean_two_weight_generators(spec, k, n_max):
    ring = ring_from_text(spec)
    records = search_modular_codes(ring, k, n_max)
    return ring, [generator_for_record(ring, rec) for rec in records
                  if rec.classification == "two-weight" and rec.b0 == 1]


def assert_matches_oracle(ring, generator):
    code = build_code(ring, generator)
    oracle_dual, oracle_report = oracle_dual_report(code)
    assert dual_pipeline(code) == oracle_report
    dual = build_dual(code)
    assert dual.ring is oracle_dual.ring
    assert (dual.generator == oracle_dual.generator).all()
    assert (dual.words == oracle_dual.words).all()


@pytest.mark.parametrize("spec,k,n_max", ORACLE_CASES,
                         ids=[case[0] for case in ORACLE_CASES])
def test_every_search_hit_matches_oracle(spec, k, n_max):
    ring, generators = clean_two_weight_generators(spec, k, n_max)
    assert generators
    for generator in generators:
        assert_matches_oracle(ring, generator)


def test_dual_past_int64_keys_matches_oracle():
    # the hyperoval in PG(2,4): its dual words have length 45, so their
    # keys are Python ints, on both sides of the comparison
    ring = ring_from_text("GF(4)")
    generator = np.array([[1, 1, 1, 1, 0, 0], [0, 1, 2, 3, 0, 1],
                          [0, 1, 3, 2, 1, 0]], dtype=np.int32)
    assert build_dual(build_code(ring, generator)).word_keys.dtype == object
    assert_matches_oracle(ring, generator)


@st.composite
def equivalent_generators(draw):
    """A search hit's generator with its columns permuted and each
    column scaled on the right by a unit: the same points, so still a
    modular two-weight code, but with columns the search never
    produces in that order or form."""
    spec, k, n_max = draw(st.sampled_from(
        [case for case in ORACLE_CASES if case[0] != "M2(GF(2))"]
        + [("M2(GF(2))", 1, 4)]))
    ring, generators = clean_two_weight_generators(spec, k, n_max)
    generator = draw(st.sampled_from(generators))
    n = generator.shape[1]
    order = draw(st.permutations(range(n)))
    units = draw(st.lists(st.sampled_from(ring.units_array.tolist()),
                          min_size=n, max_size=n))
    scaled = ring.mul_table[generator[:, order], np.array(units)[None, :]]
    return ring, np.ascontiguousarray(scaled, dtype=np.int32)


@settings(max_examples=25, deadline=None, database=None)
@given(equivalent_generators())
def test_equivalent_generators_match_oracle(case):
    ring, generator = case
    assert_matches_oracle(ring, generator)
