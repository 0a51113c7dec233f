"""The modular-code search: point geometry, candidate grid,
determinism, and the certified record stream."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcode import search
from frobcode.codes import build_code, modular_index
from frobcode.errors import CapExceededError
from frobcode.rings import ring_from_text
from frobcode.search import (
    _admissible_indices,
    _subset_masks,
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


def _masks_up_to(count, most):
    """The masks over count bits with 1 to most bits set, ascending."""
    return sorted(sum(1 << i for i in bits)
                  for size in range(1, most + 1)
                  for bits in combinations(range(count), size))


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 9), most=st.integers(1, 10),
       step=st.integers(1, 70))
def test_subset_masks_ascend_in_bounded_blocks(count, most, step):
    blocks = [block.tolist() for block in _subset_masks(count, most, step)]
    assert all(0 < len(block) <= step for block in blocks)
    assert sum(blocks, []) == _masks_up_to(count, min(most, count))


def test_search_screens_only_masks_that_can_hold_a_candidate(monkeypatch):
    # Z8, k=2: 21 points, and each chosen point takes at least one of
    # the n_max = 4 columns, so _has_index sees the 7546 masks with 1 to
    # 4 points, in ascending order, not all 2^21 - 1
    seen = []
    real = search._has_index

    def counted(chosen, *args):
        seen.append(chosen @ (1 << np.arange(chosen.shape[1])))
        return real(chosen, *args)
    monkeypatch.setattr(search, "_has_index", counted)
    records = search_modular_codes(ring_from_text("Z8"), 2, 4)
    assert np.concatenate(seen).tolist() == _masks_up_to(21, 4)
    assert len(_masks_up_to(21, 4)) == 7546
    assert max(len(r.point_ids) for r in records) == 4


def test_records_share_their_parts():
    # the 4095 records of GF(3), k=3, n_max=13, index one hold one
    # object per distinct equivalence report, weight tuple, dual report,
    # coset graph and profile
    records = search_modular_codes(ring_from_text("GF(3)"), 3, 13,
                                   index_one=True)
    assert len(records) == 4095
    held = {name: {id(getattr(r, name)) for r in records
                   if getattr(r, name) is not None}
            for name in ("equivalence", "weights", "dual", "srg", "profile")}
    assert {name: len(ids) for name, ids in held.items()} == {
        "equivalence": 8, "weights": 12, "dual": 2, "srg": 2, "profile": 2}
    # no two of them are equal
    for name in held:
        assert len({getattr(r, name) for r in records}
                   - {None}) == len(held[name])
