"""Dual two-weight codes: frozen small examples, the full certification
pipeline, the double dual, and agreement with the R^n oracle; and the
coset graphs of the classical codes whose duals are certified here."""

import json
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dual_oracle import oracle_build_dual, oracle_dual_report
from frobcode import codes
from frobcode.cli import main
from frobcode.codes import (
    LinearCode,
    build_code,
    format_code_file,
    two_weight_profile,
)
from frobcode.duality import (
    _check_index_one,
    _check_message_classification,
    _check_smaller_class_spans,
    _column_module,
    _smaller_class_mask,
    dual_pipeline,
)
from frobcode.errors import (
    CapExceededError,
    IdentityCheckError,
    PreconditionError,
)
from frobcode.graphs import (
    CosetGraph,
    _cayley_srg,
    build_coset_graph,
    coset_graph_srg,
)
from frobcode.homweight import WeightTable, weight_table
from frobcode.rings import opposite_ring, ring_from_text
from frobcode.search import generator_for_record, search_modular_codes
from frobcode.spans import (
    column_module,
    combine_rows,
    encode_vectors,
    enumerate_vectors,
)

# the hyperoval {(1,t,t^2)} + (0,0,1) + (0,1,0) in PG(2,4): its
# smaller-weight class, so the length of its dual words, is 45
HYPEROVAL = [[1, 1, 1, 1, 0, 0], [0, 1, 2, 3, 0, 1], [0, 1, 3, 2, 1, 0]]
# GF(2), k=4: the columns e1, e2, e1+e2, e3, e4, e3+e4 tiled 11 times,
# n=66, so no word has an int64 key; its graph is srg(16,6,2,2)
HALVES_66 = np.tile([[1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 0, 0],
                     [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]], 11)


def make(text, rows):
    ring = ring_from_text(text)
    return ring, build_code(ring, np.array(rows, dtype=np.int32))


def test_smaller_class_matrix_frozen():
    # the dual's generator is the transposed smaller-weight matrix
    # m1 = X1 G
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    m1 = combine_rows(ring, code.generator, _column_module(code, None).x1)
    assert [tuple(r) for r in m1.tolist()] == [
        (0, 1), (0, 2), (1, 0), (2, 0)]
    assert (oracle_build_dual(code).generator.T == m1).all()


def test_dual_histogram_frozen():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    dual = oracle_build_dual(code)
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
    dual = oracle_build_dual(code)
    double = oracle_build_dual(dual)
    p1 = two_weight_profile(dual)
    p2 = two_weight_profile(double)
    assert (p1.w1, p1.w2, p1.size) == (p2.w1, p2.w2, p2.size)
    assert dual_pipeline(dual).srg.as_tuple() == (9, 4, 1, 2)


def test_trivial_code_dual_is_trivial():
    ring, code = make("Z4", [[1, 3]])
    dual = oracle_build_dual(code)
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
    on_point, counts = _check_message_classification(
        code, module, report.w1_dual, report.w2_dual)
    assert counts == report.class_counts
    assert module.elements[on_point].tolist() == [
        [0, 1], [0, 2], [1, 0], [2, 0]]
    with pytest.raises(IdentityCheckError) as info:
        _check_message_classification(
            code, module, report.w1_dual + 1, report.w2_dual)
    assert set(info.value.witness) == {"z", "weight"}
    assert len(info.value.witness["z"]) == code.k


def test_index_one_failure_names_a_message_and_a_unit():
    # Z9, [1 2], with w(4) = 2: the smaller-weight class holds the word
    # (1, 2) of the message 1, but not the word (2, 4) of 2 * 1
    ring = ring_from_text("Z9")
    table = WeightTable(ring, np.array([0, 1, 1, 1, 2, 1, 1, 1, 1]), 1)
    code = LinearCode(ring, np.array([[1, 2]]), table)
    assert code.weight_distribution == {0: 1, 2: 6, 3: 2}
    with pytest.raises(IdentityCheckError,
                       match="^dual is not modular of index one$") as info:
        _check_index_one(code, _column_module(code, None).x1)
    assert info.value.witness == {"message": [1], "unit": 2}


def test_cap_bounds_the_column_module():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    with pytest.raises(CapExceededError):
        dual_pipeline(code, cap=8)
    assert dual_pipeline(code, cap=9).dual_size == 9


def elliptic_quadric_code(text):
    """The code of the elliptic quadric x0 x1 + x2^2 + x2 x3 + a x3^2 = 0
    in PG(3,q), from the tables of GF(q): a is the least element with no
    root t of t^2 + t + a, and each point is the representative whose
    first nonzero coordinate is 1."""
    ring = ring_from_text(text)
    add, mul = ring.add_table, ring.mul_table
    t = np.arange(ring.order)
    a = next(a for a in t if (add[add[mul[t, t], t], a] != 0).all())
    x = enumerate_vectors(ring.order, 4)
    lead = x[np.arange(len(x)), (x != 0).argmax(axis=1)]
    x = x[lead == ring.one]
    form = add[add[mul[x[:, 0], x[:, 1]], mul[x[:, 2], x[:, 2]]],
               add[mul[x[:, 2], x[:, 3]], mul[a, mul[x[:, 3], x[:, 3]]]]]
    return ring, build_code(ring, x[form == 0].T.copy())


def test_elliptic_quadric_q8_smaller_words_span_the_code():
    # Q^-(3,8): GF(8), k=4, n=65; the span of the messages of its 3640
    # smaller-weight words skips every message it already holds, so it
    # takes 4 passes, not one per word
    ring, code = elliptic_quadric_code("GF(8)")
    assert (code.k, code.n, code.size) == (4, 65, 4096)
    assert _smaller_class_mask(code).sum() == 3640
    _check_smaller_class_spans(code, None)
    module, _ = column_module(ring, code.generator)
    assert len(module) == 4096


def test_elliptic_quadric_q16_code_memory():
    # Q^-(3,16): GF(16), k=4, n=257.  Held on its 65536 messages, the
    # code and its profile stay far below its 65536 x 257 words (64 MiB
    # as int32)
    tracemalloc.start()
    try:
        ring, code = elliptic_quadric_code("GF(16)")
        profile = code.profile
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code.k, code.n, profile.size, profile.b0) == (4, 257, 65536, 1)
    assert (profile.b1, profile.b2) == (61680, 3855)
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("q,srg", [
    (4, [256, 51, 2, 12]), (5, [625, 104, 3, 20]), (8, [4096, 455, 6, 56]),
    (9, [6561, 656, 7, 72]),
], ids=["4", "5", "8", "9"])
def test_elliptic_quadric_dual_graph(capsys, tmp_path, q, srg):
    # the dual graph of Q^-(3,q) is srg(q^4, (q^2+1)(q-1), q-2, q(q-1));
    # for q = 8 the dual's words are 3640 long, and the dual is
    # certified on the 4096 elements of the column module
    assert srg == [q ** 4, (q * q + 1) * (q - 1), q - 2, q * (q - 1)]
    ring, code = elliptic_quadric_code(f"GF({q})")
    assert list(dual_pipeline(code).srg.as_tuple()) == srg
    path = tmp_path / "quadric.code"
    path.write_text(format_code_file(ring.spec.text(), code.generator))
    assert main(["dual", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["srg_measured"] == report["srg_predicted"] == srg


@pytest.mark.parametrize("q,srg", [
    (4, [256, 204, 164, 156]), (5, [625, 520, 435, 420]),
    (8, [4096, 3640, 3240, 3192]), (9, [6561, 5904, 5319, 5256]),
], ids=["4", "5", "8", "9"])
def test_elliptic_quadric_coset_graph(capsys, tmp_path, q, srg):
    # the coset graph of Q^-(3,q) is the complement of its dual graph;
    # for q = 8 the words are 65 long, and the 3640^2 differences are
    # counted on 4-long messages
    N, K, lam, mu = q ** 4, (q * q + 1) * (q - 1), q - 2, q * (q - 1)
    assert srg == [N, N - 1 - K, N - 2 - 2 * K + mu, N - 2 * K + lam]
    ring, code = elliptic_quadric_code(f"GF({q})")
    path = tmp_path / "quadric.code"
    path.write_text(format_code_file(ring.spec.text(), code.generator))
    assert main(["graph", str(path), "--cert"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = "N={} K={} lambda={} mu={} trivial=false".format(*srg)
    assert lines == [f"measured:  {expected}", f"predicted: {expected}",
                     "graph parameters: pass"]


@pytest.mark.parametrize("q,profile", [
    (8, {"n": 65, "size": 4096, "b0": 1, "w1": "64", "w2": "512/7",
         "b1": 3640, "b2": 455, "index": "1/7", "trivial": False}),
    (9, {"n": 82, "size": 6561, "b0": 1, "w1": "81", "w2": "729/8",
         "b1": 5904, "b2": 656, "index": "1/8", "trivial": False}),
    (16, {"n": 257, "size": 65536, "b0": 1, "w1": "256", "w2": "4096/15",
          "b1": 61680, "b2": 3855, "index": "1/15", "trivial": False}),
], ids=["8", "9", "16"])
def test_elliptic_quadric_analyze(capsys, tmp_path, q, profile):
    # Q^-(3,q) has n = q^2 + 1, weights q^2 and q^3 / (q - 1) on
    # (q^2 + 1) q (q - 1) and (q^2 + 1)(q - 1) words, and index
    # 1 / (q - 1); its shift identities are proved at each of the n
    # coordinates and q values, never at the q^n shifts
    assert profile == {
        "n": q * q + 1, "size": q ** 4, "b0": 1, "w1": str(q * q),
        "w2": str(Fraction(q ** 3, q - 1)), "b1": (q * q + 1) * q * (q - 1),
        "b2": (q * q + 1) * (q - 1), "index": str(Fraction(1, q - 1)),
        "trivial": False}
    ring, code = elliptic_quadric_code(f"GF({q})")
    path = tmp_path / "quadric.code"
    path.write_text(format_code_file(ring.spec.text(), code.generator))
    assert main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["profile"] == profile
    assert report["lemma_checks"] == {"code-correlation": True,
                                      "class-coset-sums": True,
                                      "coordinate-identities": True}


def spy_encode_lengths(monkeypatch):
    """The length of every row that frobcode encodes from now on."""
    encode, lengths = encode_vectors, []

    def spy_encode(vectors, order):
        lengths.append(np.shape(vectors)[-1])
        return encode(vectors, order)

    for name, module in list(sys.modules.items()):
        if (name.startswith("frobcode")
                and getattr(module, "encode_vectors", None) is encode):
            monkeypatch.setattr(module, "encode_vectors", spy_encode)
    return lengths


def test_coset_graph_keys_only_messages(monkeypatch):
    # the coset graph, its measurement and its adjacency matrix key only
    # k-long messages
    ring = ring_from_text("GF(4)")
    code = build_code(ring, np.array(HYPEROVAL, dtype=np.int32))
    lengths = spy_encode_lengths(monkeypatch)
    graph = build_coset_graph(code)
    assert coset_graph_srg(graph).as_tuple() == (64, 45, 32, 30)
    assert graph.adjacency().sum() == 64 * 45
    assert lengths and set(lengths) == {code.k}


def test_build_graph_and_dual_key_only_messages(monkeypatch):
    # n = 66 over GF(2): building the code, its coset graph, the graph's
    # measurement and adjacency matrix, and the dual pipeline key no row
    # longer than a message
    ring = ring_from_text("GF(2)")
    lengths = spy_encode_lengths(monkeypatch)
    code = build_code(ring, HALVES_66)
    graph = build_coset_graph(code)
    assert coset_graph_srg(graph).as_tuple() == (16, 6, 2, 2)
    assert graph.adjacency().sum() == 16 * 6
    assert dual_pipeline(code).srg.as_tuple() == (16, 6, 2, 2)
    assert lengths and set(lengths) == {code.k}


def test_dual_pipeline_builds_no_dual_code(monkeypatch):
    # the pipeline certifies the dual on the column module: it keys no
    # row as long as the dual's words and builds no code over the
    # opposite ring (none at all)
    ring = ring_from_text("GF(4)")
    code = build_code(ring, np.array(HYPEROVAL, dtype=np.int32))
    assert code.profile.b1 == 45
    lengths = spy_encode_lengths(monkeypatch)
    build, rings = codes.build_code, []

    def spy_build_code(ring, *args, **kwargs):
        rings.append(ring.spec.text())
        return build(ring, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("frobcode")
                and getattr(module, "build_code", None) is build):
            monkeypatch.setattr(module, "build_code", spy_build_code)
    assert dual_pipeline(code).srg.as_tuple() == (64, 18, 2, 6)
    assert lengths and code.profile.b1 not in lengths
    assert rings == []


def test_column_module_graph_fails_like_coset_graph():
    # GF(2)^3 connected by e2 and e3 is two disjoint 4-cycles: symmetric,
    # but nonadjacent pairs have 2 or 0 common neighbours.  Counted on
    # the column module as dual_pipeline counts it, and as the coset
    # graph of the code with the same connection set, it fails alike.
    ring, code = make("GF(2)", np.eye(3, dtype=np.int32).tolist())
    z, keys = column_module(ring, code.generator)
    connection = np.isin(keys, [1, 2])
    with pytest.raises(IdentityCheckError) as on_z:
        _cayley_srg(ring, z[connection], keys, np.arange(len(z)),
                    connection)
    graph = CosetGraph(code, np.arange(code.size),
                       enumerate_vectors(ring.order, code.k), connection)
    with pytest.raises(IdentityCheckError) as on_cosets:
        coset_graph_srg(graph)
    assert str(on_z.value) == str(on_cosets.value) \
        == "nonadjacent pairs disagree on common neighbours"
    assert on_z.value.witness == on_cosets.value.witness \
        == {"values": [0, 2]}


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
    m1 = combine_rows(ring, code.generator, _column_module(code, None).x1)
    assert np.array_equal(m1[np.lexsort(m1.T[::-1])],
                          oracle_dual.generator.T)


@pytest.mark.parametrize("spec,k,n_max", ORACLE_CASES,
                         ids=[case[0] for case in ORACLE_CASES])
def test_every_search_hit_matches_oracle(spec, k, n_max):
    ring, generators = clean_two_weight_generators(spec, k, n_max)
    assert generators
    for generator in generators:
        assert_matches_oracle(ring, generator)


def test_dual_past_int64_keys_matches_oracle():
    # the hyperoval's dual words have length 45, past int64 keys, and
    # the oracle's dual is held on its messages like every code
    ring = ring_from_text("GF(4)")
    generator = np.array(HYPEROVAL, dtype=np.int32)
    dual = oracle_build_dual(build_code(ring, generator))
    assert dual.n == 45
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
