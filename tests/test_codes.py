"""Linear code enumeration, modularity, profiles, and the lemma-layer
identities, with hand-computed frozen examples."""

from fractions import Fraction

import numpy as np
import pytest

from frobcode.codes import (
    build_code,
    class_coset_sums,
    code_correlation,
    coordinate_class_sum,
    coordinate_correlation,
    format_code_file,
    modular_index,
    one_weight_characterization,
    parse_code_file,
    support_with_zero,
    sweep_class_coset_sums,
    sweep_code_correlation,
    sweep_coordinate_identities,
    sweep_shifts,
    two_weight_profile,
)
from frobcode.errors import (
    PreconditionError,
    SpecParseError,
    ZeroColumnError,
)
from frobcode.rings import ring_from_text


def make(text, rows):
    ring = ring_from_text(text)
    return ring, build_code(ring, np.array(rows, dtype=np.int32))


# ------------------------------------------------------- construction


def test_f3_identity_frozen_profile():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    assert code.size == 9
    assert code.b0 == 1
    assert code.weight_distribution == {
        Fraction(0): 1, Fraction(3, 2): 4, Fraction(3): 4}
    assert modular_index(code) == Fraction(1, 2)
    profile = two_weight_profile(code)
    assert (profile.w1, profile.w2) == (Fraction(3, 2), Fraction(3))
    assert (profile.b0, profile.b1, profile.b2) == (1, 4, 4)
    assert profile.index == Fraction(1, 2)
    assert not profile.trivial


def test_gf4_identity_frozen_profile():
    ring, code = make("GF(4)", [[1, 0], [0, 1]])
    profile = two_weight_profile(code)
    assert (profile.w1, profile.w2) == (Fraction(4, 3), Fraction(8, 3))
    assert (profile.b0, profile.b1, profile.b2) == (1, 6, 9)
    assert profile.index == Fraction(1, 3)


def test_z4_trivial_two_weight():
    ring, code = make("Z4", [[1, 3]])
    profile = two_weight_profile(code)
    assert (profile.w1, profile.w2) == (2, 4)
    assert (profile.b0, profile.b1, profile.b2) == (1, 2, 1)
    assert profile.index == 1
    assert profile.trivial


def test_z4_one_weight_code():
    ring, code = make("Z4", [[1, 2, 3]])
    assert code.weight_distribution == {Fraction(0): 1, Fraction(4): 3}
    assert two_weight_profile(code) is None
    is_one, is_mod, is_sub = one_weight_characterization(code)
    assert is_one and is_mod and is_sub
    supp = support_with_zero(code)
    assert len(supp) == 4


def test_one_weight_characterization_negative():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    is_one, is_mod, is_sub = one_weight_characterization(code)
    assert not is_one and is_mod and not is_sub


def test_one_weight_characterization_needs_trivial_zero_class():
    # the unit (1,1) of prod(Z2,Z2) has weight 0: a one-weight code with
    # b0 = 2 whose support with zero is no submodule
    ring, code = make("prod(Z2,Z2)", [[1]])
    assert code.b0 == 2
    with pytest.raises(PreconditionError):
        one_weight_characterization(code)


def test_non_modular_code():
    ring, code = make("Z4", [[1, 1, 1, 2]])
    assert modular_index(code) is None
    profile = two_weight_profile(code)
    assert (profile.w1, profile.w2) == (5, 6)
    assert profile.index is None
    with pytest.raises(PreconditionError, match="^code is not modular$"):
        code.modular_two_weight("identity sweep")
    with pytest.raises(PreconditionError):
        sweep_code_correlation(code, sweep_shifts(code))


def test_zero_column_rejected():
    ring = ring_from_text("Z4")
    with pytest.raises(ZeroColumnError):
        build_code(ring, np.array([[1, 0], [2, 0]], dtype=np.int32))


def test_bad_entries_rejected():
    ring = ring_from_text("Z4")
    with pytest.raises(PreconditionError):
        build_code(ring, np.array([[4, 1]], dtype=np.int32))
    with pytest.raises(PreconditionError):
        build_code(ring, np.zeros((0, 2), dtype=np.int32))


def test_membership_and_points():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    assert code.contains([2, 2])
    points = code.points
    assert [(pid, mult) for pid, _, _, mult in points] == [(1, 1), (3, 1)]
    assert all(orbit == 2 for _, _, orbit, _ in points)
    ring, partial = make("Z4", [[1, 3]])
    assert partial.contains([1, 3])
    assert not partial.contains([1, 0])


# ----------------------------------------------------- lemma identities


def test_code_correlation_frozen_values():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    lhs, rhs, den = code_correlation(code, np.array([[0, 0], [1, 1]]))
    assert [Fraction(int(v), den) for v in lhs] \
        == [Fraction(int(v), den) for v in rhs] == [45, Fraction(63, 2)]


def test_class_coset_sum_frozen_values():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    [(lhs1, rhs1), (lhs2, rhs2)], den = class_coset_sums(
        code, np.array([[0, 0], [1, 1]]))
    # with no shift the smaller class sums its own weights: 4 * 3/2 = 6
    assert Fraction(int(lhs1[0]), den) == Fraction(int(rhs1[0]), den) == 6
    # shifting by a weight-3 word pushes the sum to b1 w1' forms: 9
    assert Fraction(int(lhs1[1]), den) == Fraction(int(rhs1[1]), den) == 9
    assert Fraction(int(lhs2[1]), den) == Fraction(int(rhs2[1]), den) == 6
    # the classes and the zero word tile the whole-code shifted sum,
    # which a modular code pins at n |C|
    wd = code.table.word_value(np.array([1, 1], dtype=np.int32))
    assert Fraction(int(lhs1[1] + lhs2[1]), den) + wd \
        == code.n * code.size == 18


def test_coordinate_identities_frozen():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    for evaluate in (coordinate_correlation, coordinate_class_sum):
        lhs, rhs, _ = evaluate(code, np.array([0, 1]))
        assert lhs.shape == (2, 3)
        assert lhs.tolist() == rhs.tolist()


@pytest.mark.parametrize("rows,text", [
    ([[1, 0], [0, 1]], "GF(3)"),
    ([[1, 3]], "Z4"),
    ([[1, 0], [0, 1]], "GF(4)"),
    ([[1, 2, 3]], "Z4"),
])
def test_sweeps_green(rows, text):
    ring, code = make(text, rows)
    shifts = sweep_shifts(code, full=True)
    assert sweep_code_correlation(code, shifts) == ring.order ** code.n
    if two_weight_profile(code) is not None:
        sweep_class_coset_sums(code, shifts)
        sweep_coordinate_identities(code)


def test_sampled_sweeps_agree():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    shifts = sweep_shifts(code, sample=200, seed=0)
    assert sweep_code_correlation(code, shifts) == 200
    assert sweep_class_coset_sums(code, shifts) == 200


def test_sweep_shifts_rule():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    # R^n within 4096 vectors: every shift, unless a sample is asked for
    assert sweep_shifts(code).tolist() == sweep_shifts(
        code, full=True).tolist()
    assert len(sweep_shifts(code)) == 9
    assert len(sweep_shifts(code, sample=5, seed=3)) == 5
    assert sweep_shifts(code, sample=5, seed=3).tolist() == \
        sweep_shifts(code, sample=7, seed=3)[:5].tolist()
    ring, long = make("GF(2)", [[1] * 13])
    assert len(sweep_shifts(long)) == 200
    assert len(sweep_shifts(long, full=True)) == 2 ** 13


# --------------------------------------------------------- code files


def test_code_file_round_trip():
    text = format_code_file("GF(3)", [[1, 0], [0, 1]])
    data = parse_code_file(text)
    assert data.ring_text == "GF(3)"
    assert data.k == 2 and data.n == 2
    assert data.rows == ((1, 0), (0, 1))
    assert format_code_file(data.ring_text, data.rows) == text


def test_code_file_errors():
    for bad in [
        "",
        "ring: Z4",
        "ring: Z4\nk: 1 n: 2",
        "ring: Z4\nk: x n: 2\n1 2",
        "ring: Z4\nk: 2 n: 2\n1 2",
        "ring: Z4\nk: 1 n: 2\n1 2 3",
        "k: 1 n: 2\n1 2\nring: Z4",
        "ring: Z4\nk: 1 n: 2\n1 q",
    ]:
        with pytest.raises(SpecParseError):
            parse_code_file(bad)
