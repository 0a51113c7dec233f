"""The table-driven search against the per-candidate oracle: equal
records, the same first failure under corrupted weight tables, and a
memoised column module equal to the one spanned by each candidate's
generator."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcode import graphs, homweight, search
from frobcode.errors import FrobcodeError, IdentityCheckError
from frobcode.rings import ring_from_text
from frobcode.spans import column_module, encode_vectors, is_submodule

from identity_oracle import bump_unit_orbit
from search_oracle import certify_candidate, search_per_candidate

# (spec, k, n_max, index_one): every classification, indices other than
# 1, and b0 > 1 (prod(Z2,Z2), where the weight vanishes off 0)
CASES = [
    ("GF(2)", 2, 6, False),
    ("GF(3)", 2, 6, False),
    ("GF(4)", 2, 6, False),
    ("Z4", 2, 6, False),
    ("GF(3)", 3, 9, True),
    ("Z8", 1, 6, False),
    ("Z9", 1, 6, False),
    ("M2(GF(2))", 1, 5, False),
    ("prod(Z2,Z2)", 2, 3, False),
    ("prod(Z4,Z2)", 1, 3, False),
]
SMALL_CASES = [
    ("Z4", 2, 4, False),
    ("GF(3)", 2, 6, False),
    ("Z8", 1, 6, False),
    ("prod(Z4,Z2)", 1, 3, False),
    ("Z6", 1, 6, False),
    ("GF(4)", 2, 4, True),
]

_rings = {}
_oracle = {}


def _ring(spec):
    if spec not in _rings:
        _rings[spec] = ring_from_text(spec)
    return _rings[spec]


def _oracle_records(case):
    if case not in _oracle:
        spec, k, n_max, index_one = case
        _oracle[case] = search_per_candidate(_ring(spec), k, n_max,
                                             index_one=index_one)
    return _oracle[case]


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert vars(mine) == vars(theirs)


@pytest.mark.parametrize("case", CASES,
                         ids=lambda c: f"{c[0]}-k{c[1]}-n{c[2]}")
def test_batched_search_equals_oracle(case):
    spec, k, n_max, index_one = case
    records = search.search_modular_codes(_ring(spec), k, n_max,
                                          index_one=index_one)
    _assert_same_records(records, _oracle_records(case))


@pytest.mark.parametrize("spec,mult_cap", [("Z4", 1), ("GF(4)", 2)])
def test_mult_cap_equals_oracle(spec, mult_cap):
    ring = _ring(spec)
    for index_one in (False, True):
        records = search.search_modular_codes(
            ring, 2, 6, index_one=index_one, mult_cap=mult_cap)
        _assert_same_records(records, search_per_candidate(
            ring, 2, 6, index_one=index_one, mult_cap=mult_cap))


def test_cases_cover_every_path():
    records = [r for case in CASES for r in _oracle_records(case)]
    kinds = {(r.classification, r.b0 == 1) for r in records}
    assert kinds == {("one-weight", True), ("two-weight", True),
                     ("mixed", True), ("one-weight", False),
                     ("two-weight", False), ("mixed", False)}
    assert any(r.index != 1 for r in records
               if r.classification == "mixed" and r.b0 == 1)


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(SMALL_CASES), block=st.integers(1, 64))
def test_block_size_does_not_change_records(case, block):
    spec, k, n_max, index_one = case
    with mock.patch.object(search, "BLOCK_ENTRIES", block):
        records = search.search_modular_codes(_ring(spec), k, n_max,
                                              index_one=index_one)
    _assert_same_records(records, _oracle_records(case))


@pytest.mark.parametrize("spec,k", [("GF(3)", 3), ("Z4", 2), ("GF(4)", 2),
                                    ("M2(GF(2))", 1), ("prod(Z4,Z2)", 1),
                                    ("prod(Z2,Z2)", 2), ("Z9", 2)])
def test_memoised_column_module_equals_span(spec, k):
    ring = _ring(spec)
    points, vectors, labels = search._point_layer(ring, k, None)
    tables = search._PointTables(ring, points, vectors, labels)
    # every mask up to 4096, else an evenly spaced sample of them
    stride = max(1, (1 << len(points)) // 4096)
    masks = np.arange(1, 1 << len(points), stride)
    chosen = (masks[:, None] >> np.arange(len(points))) & 1
    modules = tables._column_modules(chosen)
    for mask, module in zip(masks.tolist(), modules.tolist()):
        subset = [p for i, p in enumerate(points) if mask >> i & 1]
        generator = search._candidate_generator(ring, subset, 1)
        spanned = encode_vectors(column_module(ring, generator)[0],
                                 ring.order)
        members = np.concatenate([[True], tables.modules[module]])
        assert np.array_equal(np.flatnonzero(members[labels + 1]), spanned)


@pytest.mark.parametrize("spec,k", [("prod(Z2,Z2)", 1), ("prod(Z2,Z2)", 2),
                                    ("Z4", 2), ("M2(GF(2))", 1)])
def test_closure_equals_is_submodule(spec, k):
    # any union of orbits, not only the candidates with b0 = 1
    ring = _ring(spec)
    points, vectors, labels = search._point_layer(ring, k, None)
    tables = search._PointTables(ring, points, vectors, labels)
    masks = np.arange(1, 1 << len(points), max(1, (1 << len(points)) // 512))
    chosen = (masks[:, None] >> np.arange(len(points))) & 1
    closed = tables._closed(chosen, tables._difference_counts(chosen))
    for row, is_closed in zip(chosen, closed.tolist()):
        members = np.concatenate([[True], row == 1])[labels + 1]
        assert is_closed == is_submodule(ring, vectors[members], "right")


def _outcome(fn):
    try:
        return fn()
    except FrobcodeError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", None))


@pytest.mark.parametrize("spec,x,delta", [("Z8", 1, 1), ("Z8", 2, -1),
                                          ("Z8", 1, 3)])
def test_bumped_orbit_fails_like_oracle(spec, x, delta, monkeypatch):
    ring = _ring(spec)
    table = bump_unit_orbit(ring, homweight.weight_table(ring), x, delta)
    monkeypatch.setitem(homweight._table_cache, ring, table)
    batched = _outcome(lambda: search.search_modular_codes(ring, 1, 6))
    oracle = _outcome(lambda: search_per_candidate(ring, 1, 6))
    assert batched == oracle
    # the first failure is a mixed candidate's difference-set claim
    assert batched[0] is IdentityCheckError
    assert batched[1] == "two-weight / difference-set equivalence fails"
    assert batched[2]["two_weight"] is False and batched[2]["pds"] is True


def test_each_settled_candidate_fails_like_oracle(monkeypatch):
    # every candidate, under tables with a whole unit orbit bumped,
    # against its own per-candidate certification
    failures = set()
    for spec, k, n_max, index_one in SMALL_CASES[:5]:
        ring = _ring(spec)
        base = homweight.weight_table(ring)
        for x in range(1, ring.order):
            for delta in (-1, 2):
                table = bump_unit_orbit(ring, base, x, delta)
                monkeypatch.setitem(homweight._table_cache, ring, table)
                failures |= _compare_each(ring, k, n_max, index_one)
    assert failures == {
        "complement submodule test disagrees with triviality",
        "one-weight / submodule equivalence fails",
        "one-weight characterization fails",
        "two-weight / difference-set equivalence fails",
        "two-weight frequencies disagree with their closed forms",
        "zero-weight words are not closed under addition"}


def test_search_cap_overrides_env_cap_like_oracle(monkeypatch):
    # an environment cap below the search cap trips nothing: the column
    # module lies in R^k, which the search enumerates under its own cap
    monkeypatch.setenv("FROBCODE_CAP", "8")
    assert _compare_each(_ring("Z4"), 2, 4, False, cap=100) == set()


def _compare_each(ring, k, n_max, index_one, cap=None):
    """The failure messages of every candidate, each one asserted equal
    to the oracle's outcome for it."""
    points, vectors, labels = search._point_layer(ring, k, cap)
    tables = search._PointTables(ring, points, vectors, labels)
    masks = np.arange(1, 1 << len(points))
    chosen = (masks[:, None] >> np.arange(len(points))) & 1
    failures = set()
    for mask, row in zip(masks.tolist(), tables.classify(chosen)):
        subset = [p for i, p in enumerate(points) if mask >> i & 1]
        sizes = [p.orbit_size for p in subset]
        for index in search._admissible_indices(sizes, n_max, n_max,
                                                index_one):
            got = _outcome(lambda: tables.record(ring, k, subset, index,
                                                 row, cap))
            want = _outcome(lambda: certify_candidate(
                ring, k, subset, index, cap))
            assert got == want
            if isinstance(got, tuple):
                failures.add(got[1])
    return failures


def test_settled_candidates_skip_code_and_equivalence(monkeypatch):
    # a code is built only for two-weight and b0 > 1 candidates, and
    # equivalence_check never runs: pds_check runs only inside it,
    # however either is bound
    calls = {"build_code": 0, "equivalence_check": 0, "pds_check": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(search, "build_code")
    spy(graphs, "equivalence_check")
    spy(graphs, "pds_check")
    for spec, k, n_max, index_one in (("GF(3)", 3, 9, True),
                                      ("prod(Z2,Z2)", 2, 3, False)):
        calls["build_code"] = 0
        records = search.search_modular_codes(_ring(spec), k, n_max,
                                              index_one=index_one)
        assert calls["build_code"] == sum(
            r.classification == "two-weight" or r.b0 > 1 for r in records)
        assert 0 < calls["build_code"] < len(records)
    assert calls["equivalence_check"] == calls["pds_check"] == 0
