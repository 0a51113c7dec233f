"""The modular-code search: point geometry, candidate grid,
determinism, and the certified record stream."""

from fractions import Fraction

import pytest

from frobcode.codes import build_code, modular_index
from frobcode.errors import CapExceededError
from frobcode.rings import ring_from_text
from frobcode.search import (
    _admissible_indices,
    generator_for_record,
    projective_points,
    search_modular_codes,
)


def test_f3_plane_points():
    ring = ring_from_text("GF(3)")
    points = projective_points(ring, 2)
    assert [(p.pid, p.representative, p.orbit_size) for p in points] == [
        (1, (0, 1), 2), (3, (1, 0), 2), (4, (1, 1), 2), (5, (1, 2), 2)]


def test_z4_plane_points():
    ring = ring_from_text("Z4")
    points = projective_points(ring, 2)
    assert len(points) == 9
    assert sorted(p.orbit_size for p in points) == [1, 1, 1, 2, 2, 2, 2, 2, 2]
    # the three singleton orbits are the order-two vectors
    singles = {p.representative for p in points if p.orbit_size == 1}
    assert singles == {(0, 2), (2, 0), (2, 2)}


def test_admissible_indices():
    assert _admissible_indices([2, 2], 8, 8, False) == [
        Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    assert _admissible_indices([2, 2], 8, 8, True) == [Fraction(1)]
    assert _admissible_indices([1, 2], 8, 8, False) == [
        Fraction(1), Fraction(2)]
    assert _admissible_indices([3], 8, 8, False) == [
        Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(4, 3),
        Fraction(5, 3), Fraction(2), Fraction(7, 3), Fraction(8, 3)]
    # the per-point multiplicity cap prunes large ratios
    assert _admissible_indices([3], 8, 4, False) == [
        Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(4, 3)]
    assert _admissible_indices([4], 3, 3, True) == []


def test_search_is_deterministic():
    ring = ring_from_text("GF(3)")
    first = search_modular_codes(ring, 2, 6)
    second = search_modular_codes(ring, 2, 6)
    assert first == second
    assert len(first) > 0


def test_gf3_target_hit():
    ring = ring_from_text("GF(3)")
    records = search_modular_codes(ring, 2, 4)
    hits = [r for r in records
            if r.classification == "two-weight"
            and r.weights == (Fraction(3, 2), Fraction(3))]
    assert hits
    for hit in hits:
        assert hit.srg.as_tuple() == (9, 4, 1, 2)
        assert not hit.srg.trivial
        assert hit.dual is not None
        assert (hit.dual.w1_dual, hit.dual.w2_dual) == (3, 6)
        assert hit.equivalence is not None
        assert hit.equivalence.pds is not None


def test_index_one_restriction():
    ring = ring_from_text("Z4")
    records = search_modular_codes(ring, 2, 6, index_one=True)
    assert records
    assert all(r.index == 1 for r in records)


def test_generator_round_trip():
    ring = ring_from_text("GF(4)")
    records = search_modular_codes(ring, 2, 5)
    for rec in records[:12]:
        generator = generator_for_record(ring, rec)
        code = build_code(ring, generator)
        assert code.n == rec.n
        assert code.size == rec.size
        assert modular_index(code) == rec.index


def test_point_guard():
    ring = ring_from_text("GF(2)")
    assert len(projective_points(ring, 5)) == 31
    with pytest.raises(CapExceededError):
        search_modular_codes(ring, 5, 3)


def test_gf2_sweep_shape():
    # over the two-element field nothing nontrivial can appear at rank
    # two: the only two-weight codes are the trivial-graph ones
    ring = ring_from_text("GF(2)")
    records = search_modular_codes(ring, 2, 8)
    assert len(records) == 38
    two = [r for r in records if r.classification == "two-weight"]
    assert len(two) == 12
    assert all(r.srg.trivial for r in two)
    ones = [r for r in records if r.classification == "one-weight"]
    assert all(r.equivalence.omega_with_zero_submodule for r in ones
               if r.equivalence is not None)


def test_records_hold_dual_only_for_clean_two_weight():
    ring = ring_from_text("Z4")
    records = search_modular_codes(ring, 2, 5)
    for rec in records:
        if rec.classification == "two-weight" and rec.b0 == 1:
            assert rec.dual is not None
        else:
            assert rec.dual is None
        if rec.b0 == 1:
            assert rec.equivalence is not None
            eq = rec.equivalence
            assert (rec.classification == "two-weight") == (
                eq.pds is not None and not eq.omega_with_zero_submodule)
