"""The table-driven search against the per-candidate oracle: equal
records, the same first failure under corrupted weight tables and
planted closed-form faults, a memoised column module equal to the one
spanned by each candidate's generator, and each distinct profile's
closed forms evaluated once per search."""

from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import search_oracle
from frobcode import codes, duality, graphs, homweight, search
from frobcode.codes import TwoWeightProfile
from frobcode.errors import FrobcodeError, IdentityCheckError
from frobcode.rings import ring_from_text
from frobcode.spans import column_module, encode_vectors, is_submodule

from identity_oracle import bump_one_sided_orbit, bump_unit_orbit
from search_oracle import certify_candidate, search_per_candidate

# (spec, k, n_max, index_one): every classification, indices other than
# 1, and b0 > 1 (prod(Z2,Z2), where the weight vanishes off 0), with
# two-weight subsets of several indices for b0 = 1 and b0 > 1
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
    ("prod(Z2,Z2)", 2, 4, False),
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
    # two-weight subsets whose further indices share their first
    # index's measurement, with b0 = 1 and b0 > 1
    indices = {}
    for r in records:
        if r.classification == "two-weight":
            key = r.ring_text, r.k, r.point_ids, r.b0 == 1
            indices.setdefault(key, set()).add(r.index)
    for trivial in (True, False):
        assert any(len(found) > 1
                   and any(i.denominator != 1 for i in found)
                   for key, found in indices.items() if key[3] == trivial)


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
        assert is_closed == is_submodule(ring, vectors[members])


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
    monkeypatch.setitem(ring.derived, "weight_table", table)
    batched = _outcome(lambda: search.search_modular_codes(ring, 1, 6))
    oracle = _outcome(lambda: search_per_candidate(ring, 1, 6))
    assert batched == oracle
    # the first failure is a mixed candidate's difference-set claim
    assert batched[0] is IdentityCheckError
    assert batched[1] == "two-weight / difference-set equivalence fails"
    assert batched[2]["two_weight"] is False and batched[2]["pds"] is True


def _first_failure(monkeypatch, ring, search_args, kwargs):
    """The outcomes of the search and of the oracle, and how many
    records each made before it failed."""
    made = {"search": 0, "oracle": 0}
    for module, key in ((search, "search"), (search_oracle, "oracle")):
        def counted(*args, _real=module.SearchRecord, _key=key, **fields):
            made[_key] += 1
            return _real(*args, **fields)
        monkeypatch.setattr(module, "SearchRecord", counted)
    batched = _outcome(lambda: search.search_modular_codes(
        ring, *search_args, **kwargs))
    oracle = _outcome(lambda: search_per_candidate(ring, *search_args,
                                                   **kwargs))
    return batched, oracle, made


def test_dual_class_fault_mid_block_fails_like_oracle(monkeypatch):
    # M2(GF(2)), k=1, index one, no column on the unit point: the codes
    # read the weight only on one left ideal, so moving the left unit
    # orbit of the element 3 leaves every primal check alone and first
    # fails the dual words of the third row of the one classify block,
    # a two-weight hit
    ring = _ring("M2(GF(2))")
    search_args, kwargs = (1, 9), {"index_one": True, "mult_cap": 3}
    clean = search.search_modular_codes(ring, *search_args, **kwargs)
    table = bump_one_sided_orbit(ring, homweight.weight_table(ring), 3, -2,
                                 "left")
    monkeypatch.setitem(ring.derived, "weight_table", table)
    blocks = []
    real = search._PointTables.classify

    def classify(self, chosen):
        blocks.append(len(chosen))
        return real(self, chosen)
    monkeypatch.setattr(search._PointTables, "classify", classify)
    batched, oracle, made = _first_failure(monkeypatch, ring, search_args,
                                           kwargs)
    assert batched == oracle == (
        IdentityCheckError,
        "dual word weight disagrees with its on-point class",
        {"z": [3], "weight": "3"})
    assert blocks == [7]
    assert made["search"] == made["oracle"] == 2
    failing = clean[made["search"]]
    assert failing.classification == "two-weight"
    assert [r.point_ids for r in clean[:3]] == [(2,), (5,), (2, 5)]


def test_shift_fault_fails_like_oracle(monkeypatch):
    # prod(Z4,Z2), k=1: with w(3) and w(4) moved apart, a two-weight
    # candidate with b0 > 1 has weights that change under its zero-weight
    # shifts; the witness names words, so the search builds that code
    ring = _ring("prod(Z4,Z2)")
    numerators = homweight.weight_table(ring).numerators.copy()
    numerators[3] += 2
    numerators[4] -= 2
    monkeypatch.setitem(ring.derived, "weight_table", homweight.WeightTable(
        numerators, homweight.weight_table(ring).denominator))
    batched, oracle, _ = _first_failure(monkeypatch, ring, (1, 6),
                                        {"mult_cap": 2})
    assert batched == oracle == (
        IdentityCheckError, "weights change under zero-weight shifts",
        {"word": [4], "shift": [5]})


def test_index_one_failure_names_the_codes_witness(monkeypatch):
    # Z9 with w(4) = 2: the unit point's smaller-weight messages miss
    # 4 = 2 * 2, so its dual is not of index one.  No search reaches
    # this check with a planted table: a weight moved inside a left
    # unit orbit first fails a one-point candidate's profile or
    # difference-set claims, here the power-sum relation, which is
    # therefore skipped.  The row's facts raise what the dual
    # measurement of its code raises.
    _replace_everywhere(monkeypatch, "_checked_profile",
                        lambda real: lambda profile: profile)
    ring = _ring("Z9")
    table = homweight.WeightTable(np.array([0, 1, 1, 1, 2, 1, 1, 1, 1]), 1)
    monkeypatch.setitem(ring.derived, "weight_table", table)
    points, vectors, labels = search._point_layer(ring, 1, None)
    tables = search._PointTables(ring, points, vectors, labels)
    (row,) = tables.classify(np.array([[1, 0]]))
    facts = row[4]
    assert len(row[0]) == 2 and row[2] == 1 and not facts.left_closed
    generator = partial(search._candidate_generator, ring, points[:1],
                        Fraction(1))
    with pytest.raises(IdentityCheckError) as got:
        search._RowDual(tables, facts, generator, None).index_one
    with pytest.raises(IdentityCheckError) as want:
        duality.DualMeasurement(codes.build_code(ring, generator()),
                                None).index_one
    assert str(got.value) == str(want.value) \
        == "dual is not modular of index one"
    assert got.value.witness == want.value.witness \
        == {"message": [2], "unit": 2}


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
                monkeypatch.setitem(ring.derived, "weight_table", table)
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
    to the oracle's outcome for it.  Every index of a subset is
    certified from the facts its classify row measured, as the search
    certifies them."""
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
            got = _outcome(lambda: tables.record(row, index, cap))
            want = _outcome(lambda: certify_candidate(
                ring, k, subset, index, cap))
            assert got == want
            if isinstance(got, tuple):
                failures.add(got[1])
    return failures


def _spy(monkeypatch, calls, module, name):
    """Count the calls of module.name in calls[name]."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


# what certifying a candidate's own code runs, by defining module
PER_CANDIDATE = {"build_code": codes, "build_coset_graph": graphs,
                 "DualMeasurement": duality, "equivalence_check": graphs,
                 "pds_check": graphs, "coset_graph_srg": graphs}


def test_settled_candidates_skip_code_and_equivalence(monkeypatch):
    # no candidate builds a code, a coset graph, a dual measurement or
    # runs equivalence_check, with b0 > 1 (prod(Z2,Z2)) and without,
    # however these are bound
    calls = dict.fromkeys(PER_CANDIDATE, 0)
    for name, module in PER_CANDIDATE.items():
        for bound in (module, search):
            if getattr(bound, name, None) is getattr(module, name):
                _spy(monkeypatch, calls, bound, name)
    for spec, k, n_max, index_one in (("GF(3)", 3, 9, True),
                                      ("prod(Z2,Z2)", 2, 3, False),
                                      ("prod(Z2,Z2)", 2, 4, False)):
        records = search.search_modular_codes(_ring(spec), k, n_max,
                                              index_one=index_one)
        assert any(r.classification == "two-weight" for r in records)
    assert calls == dict.fromkeys(PER_CANDIDATE, 0)


def _two_weight_counts(records):
    """The two-weight records, and the distinct two-weight point
    subsets."""
    return (sum(r.classification == "two-weight" for r in records),
            len({r.point_ids for r in records
                 if r.classification == "two-weight"}))


def test_subset_measured_once_across_its_indices(monkeypatch):
    # k=2, n_max=8: each classify block that holds two-weight subsets
    # counts their coset graphs and dual graphs in one stacked call of
    # the counting kernel, one smaller-weight mask and one point mask
    # per subset, and no candidate builds a code, graph or dual
    calls = dict.fromkeys(PER_CANDIDATE, 0)
    for name, module in PER_CANDIDATE.items():
        _spy(monkeypatch, calls, module, name)
    stacks = []
    real = search._difference_counts

    def counted(ring, rows, keys, labels, connections):
        stacks.append(len(connections))
        return real(ring, rows, keys, labels, connections)
    monkeypatch.setattr(search, "_difference_counts", counted)
    totals = [0, 0]
    for spec in ("GF(2)", "GF(3)", "GF(4)", "Z4"):
        stacks.clear()
        records = search.search_modular_codes(_ring(spec), 2, 8)
        hits, subsets = _two_weight_counts(records)
        assert all(r.b0 == 1 for r in records)
        assert sum(stacks) == 2 * subsets
        assert 1 <= len(stacks) <= 2
        totals[0] += hits
        totals[1] += subsets
    assert calls == dict.fromkeys(PER_CANDIDATE, 0)
    assert totals == [254, 101]


def test_row_facts_serve_every_index_of_their_subset():
    # GF(3), k=2: points {1, 3} are two-weight at indices 1/2 and 1;
    # both records read one row's facts, which check the span once, and
    # each equals its own certification
    ring = _ring("GF(3)")
    points, vectors, labels = search._point_layer(ring, 2, None)
    tables = search._PointTables(ring, points, vectors, labels)
    masks = np.arange(1, 1 << len(points))
    chosen = (masks[:, None] >> np.arange(len(points))) & 1
    rows = dict(zip(masks.tolist(), tables.classify(chosen)))
    mask = 0b0011
    subset = [p for i, p in enumerate(points) if mask >> i & 1]
    facts = rows[mask][4]
    assert facts.spanned is None
    for index in (Fraction(1, 2), Fraction(1)):
        got = tables.record(rows[mask], index, None)
        assert got.classification == "two-weight"
        assert got == certify_candidate(ring, 2, subset, index, None)
        assert facts.spanned is True
    # a one-weight subset of b0 = 1 measures nothing
    assert rows[0b0001][4] is None


# each closed form of a profile, by its defining module; the first two
# also read the dual profile of a b0 = 1 two-weight code
FORMS = {"_checked_profile": codes, "predicted_srg": graphs,
         "predicted_dual_srg": graphs, "_dual_weights": duality}
DUAL_SIDE = ("_checked_profile", "predicted_srg")


def _replace_everywhere(monkeypatch, name, make):
    """Bind make(real) in place of the function under every module name
    bound to it, the oracle's too: one object, so the search's memo,
    keyed on the form, still sees one form."""
    real = getattr(FORMS.get(name, search), name)
    fake = make(real)
    for module in (codes, duality, graphs, search, search_oracle):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, fake)


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)

    def counting(name):
        def make(real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted
        return make

    for name in names:
        _replace_everywhere(monkeypatch, name, counting(name))
    return calls


def test_each_profile_forms_evaluated_once_per_search(monkeypatch):
    # the forms run once per distinct profile (a dual profile equal to
    # a primal one shares its forms), and every record still compares
    # its own measured facts with them: three srg comparisons per
    # two-weight record (coset graph, dual graph against both forms)
    # and a dual certificate per two-weight record.  The equivalence
    # verdict reads only facts, so it runs, with its difference-set
    # graph comparison, once per distinct report
    calls = _count_calls(monkeypatch, [*FORMS, "certify_dual",
                                       "equivalence_verdict"])
    compared = [0]
    real_eq = graphs.SrgParams.__eq__

    def eq(self, other):
        compared[0] += 1
        return real_eq(self, other)

    monkeypatch.setattr(graphs.SrgParams, "__eq__", eq)
    forms = ("_checked_profile", "predicted_srg", "predicted_dual_srg",
             "_dual_weights")
    expected = {("GF(2)", 2, 8, False): (4, 4, 4, 4),
                ("GF(3)", 2, 8, False): (6, 6, 6, 6),
                ("GF(4)", 2, 8, False): (10, 10, 8, 8),
                ("Z4", 2, 8, False): (22, 22, 19, 19),
                ("GF(3)", 3, 13, True): (2, 2, 2, 2)}
    two_weight = []
    for (spec, k, n_max, index_one), counts in expected.items():
        calls.update(dict.fromkeys(calls, 0))
        compared[0] = 0
        records = search.search_modular_codes(_ring(spec), k, n_max,
                                              index_one=index_one)
        assert tuple(calls[name] for name in forms) == counts, spec
        hits = sum(r.classification == "two-weight" for r in records)
        assert all(r.b0 == 1 for r in records)
        assert calls["certify_dual"] == hits
        assert compared[0] == 3 * hits + len(
            {id(r.equivalence) for r in records
             if r.classification == "two-weight"})
        assert calls["equivalence_verdict"] == len(
            {id(r.equivalence) for r in records}) < len(records)
        two_weight.append((hits, len(records)))
    assert [sum(h for h, _ in two_weight[:4]),
            sum(n for _, n in two_weight[:4])] == [254, 741]
    assert two_weight[4] == (130, 4095)


def test_forms_memo_lives_for_one_search(monkeypatch):
    # two identical searches in one process evaluate the same forms
    calls = _count_calls(monkeypatch, FORMS)
    seen = []
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        search.search_modular_codes(_ring("GF(4)"), 2, 8)
        seen.append(dict(calls))
    assert seen[0] == seen[1] == {"_checked_profile": 10,
                                  "predicted_srg": 10,
                                  "predicted_dual_srg": 8,
                                  "_dual_weights": 8}


def _dual_profile(record):
    """The dual profile a b0 = 1 two-weight record's forms read."""
    dual = record.dual
    return TwoWeightProfile(
        n=record.profile.b1, size=record.size, b0=1, w1=dual.w1_dual,
        w2=dual.w2_dual, b1=dual.b1_dual, b2=dual.b2_dual,
        index=Fraction(1))


@pytest.mark.parametrize("name,side", [
    ("_checked_profile", "primal"), ("_checked_profile", "dual"),
    ("predicted_srg", "primal"), ("predicted_srg", "dual"),
    ("predicted_dual_srg", "primal"), ("_dual_weights", "primal")])
def test_planted_form_fault_fails_like_oracle(name, side, monkeypatch):
    # one closed form raises for one profile, read by several records:
    # the search fails at the first record that reads it, with the
    # oracle's message and witness, though it keeps its forms
    case = ("GF(4)", 2, 6, False)
    ring = _ring(case[0])
    clean = _oracle_records(case)
    readers = {}
    for at, record in enumerate(clean):
        if record.profile is None:
            continue
        read = [record.profile]
        if name in DUAL_SIDE and record.dual is not None:
            read.append(_dual_profile(record))
        for profile in read:
            readers.setdefault(profile, []).append(at)
    if side == "primal":
        candidates = {r.profile for r in clean if r.profile is not None}
    else:
        candidates = {_dual_profile(r) for r in clean
                      if r.dual is not None} - {r.profile for r in clean}
    # the profile first read last among those read more than once
    chosen = max((p for p in candidates if len(readers[p]) > 1),
                 key=lambda p: readers[p][0])
    first = readers[chosen][0]
    assert 0 < first < readers[chosen][-1]

    def make(real):
        def faulty(profile):
            if profile == chosen:
                raise IdentityCheckError(
                    "planted fault", witness={"profile": repr(profile)})
            return real(profile)
        return faulty

    _replace_everywhere(monkeypatch, name, make)
    made = {"search": 0, "oracle": 0}
    for module, key in ((search, "search"), (search_oracle, "oracle")):
        def counted(*args, _real=module.SearchRecord, _key=key, **kwargs):
            made[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "SearchRecord", counted)
    batched = _outcome(lambda: search.search_modular_codes(ring, 2, 6))
    oracle = _outcome(lambda: search_per_candidate(ring, 2, 6))
    assert batched == oracle == (IdentityCheckError, "planted fault",
                                 {"profile": repr(chosen)})
    assert made == {"search": first, "oracle": first}


@pytest.mark.parametrize("kind,at", [("one-weight", 4), ("mixed", 13)])
def test_shared_verdict_fault_fails_like_oracle(kind, at, monkeypatch):
    # Z4, k=2, n_max=4, one classify block: the verdict facts of record
    # `at`, a one-weight or mixed row after two-weight rows of its
    # block, are first read there and read again later.  A planted
    # fault fails that verdict: the search raises at that record, with
    # its own generator as the witness, and every later reader raises
    # again with its own
    case = ("Z4", 2, 4, False)
    ring = _ring(case[0])
    clean = _oracle_records(case)

    def facts(record):
        eq = record.equivalence
        return (record.classification == "one-weight", record.profile,
                eq.pds, eq.omega_with_zero_submodule,
                eq.complement_submodule, eq.omega_size, eq.ambient_size)

    target = clean[at]
    assert target.classification == kind and target.b0 == 1
    assert any(r.classification == "two-weight" for r in clean[:at])
    readers = [j for j, r in enumerate(clean)
               if r.b0 == 1 and facts(r) == facts(target)]
    assert readers[0] == at and len(readers) > 1

    real_verdict = graphs.equivalence_verdict

    def faulty(**kwargs):
        if (kwargs["one_weight"], kwargs["profile"], kwargs["pds"],
                kwargs["omega_sub"], kwargs["comp_sub"], kwargs["omega_size"],
                kwargs["ambient_size"]) == facts(target):
            raise IdentityCheckError("planted fault", witness={
                "generator": kwargs["generator"]().tolist()})
        return real_verdict(**kwargs)

    for module in (graphs, search):
        monkeypatch.setattr(module, "equivalence_verdict", faulty)
    blocks = []
    real_classify = search._PointTables.classify

    def classify(self, chosen):
        blocks.append(len(chosen))
        return real_classify(self, chosen)
    monkeypatch.setattr(search._PointTables, "classify", classify)
    batched, oracle, made = _first_failure(monkeypatch, ring, case[1:3], {})
    assert len(blocks) == 1
    assert batched == oracle == (
        IdentityCheckError, "planted fault",
        {"generator": search.generator_for_record(ring, target).tolist()})
    assert made == {"search": at, "oracle": at}
    # each reader, certified in turn from one set of tables, fails like
    # its own certification
    assert _compare_each(ring, *case[1:]) == {"planted fault"}
