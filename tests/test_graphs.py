"""Strongly regular graph measurement, coset graphs, partial difference
sets, and the two-weight equivalence, with textbook graphs as oracles.
"""

import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import frobcode
from frobcode.codes import LinearCode, build_code, two_weight_profile
from frobcode.errors import (
    CapExceededError,
    IdentityCheckError,
    PreconditionError,
)
from frobcode.graphs import (
    SrgParams,
    build_coset_graph,
    coset_graph_srg,
    equivalence_check,
    measure_srg,
    pds_check,
    predicted_dual_srg,
    predicted_srg,
)
from frobcode.homweight import WeightTable
from frobcode.rings import ring_from_text
from frobcode.search import generator_for_record, search_modular_codes
from frobcode.spans import (
    column_module,
    combine_rows,
    encode_vectors,
    enumerate_vectors,
    row_space,
)
from srg_oracle import oracle_coset_graph


def make(text, rows):
    ring = ring_from_text(text)
    return ring, build_code(ring, np.array(rows, dtype=np.int32))


# ------------------------------------------------- measuring textbook graphs


def cycle(n):
    A = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        A[i, (i + 1) % n] = A[(i + 1) % n, i] = 1
    return A


def test_pentagon_is_srg_5_2_0_1():
    params = measure_srg(cycle(5))
    assert params.as_tuple() == (5, 2, 0, 1)
    assert not params.trivial


def test_petersen_graph():
    # vertices are the 2-subsets of a 5-set, adjacent iff disjoint
    verts = list(itertools.combinations(range(5), 2))
    A = np.zeros((10, 10), dtype=np.int8)
    for i, u in enumerate(verts):
        for j, v in enumerate(verts):
            if i != j and not (set(u) & set(v)):
                A[i, j] = 1
    assert measure_srg(A).as_tuple() == (10, 3, 0, 1)


def test_complete_graph_convention():
    A = 1 - np.eye(4, dtype=np.int8)
    np.fill_diagonal(A, 0)
    params = measure_srg(A)
    assert params.as_tuple() == (4, 3, 2, 0)
    assert params.trivial


def test_complete_bipartite():
    A = np.zeros((6, 6), dtype=np.int8)
    A[:3, 3:] = 1
    A[3:, :3] = 1
    params = measure_srg(A)
    assert params.as_tuple() == (6, 3, 0, 3)
    assert params.trivial


def test_non_srg_rejected():
    with pytest.raises(IdentityCheckError):
        measure_srg(cycle(6))
    with pytest.raises(IdentityCheckError):
        measure_srg(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                             dtype=np.int8))


def test_srg_feasibility_enforced():
    with pytest.raises(IdentityCheckError):
        SrgParams(9, 4, 1, 3, False)
    params = SrgParams(9, 4, 1, 2, False)
    assert params.as_tuple() == (9, 4, 1, 2)


# ------------------------------------------------------------ coset graphs


def test_f3_coset_graph_is_the_rook_graph():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    graph = build_coset_graph(code)
    adjacency = graph.adjacency()
    measured = measure_srg(adjacency)
    assert measured.as_tuple() == (9, 4, 1, 2)
    # independent construction: words differ in exactly one coordinate
    # exactly when they share a row or column of the 3 x 3 grid
    reps = graph.least_words()
    rook = np.zeros((9, 9), dtype=np.int8)
    for i in range(9):
        for j in range(9):
            if i != j:
                diff = (reps[i] != reps[j]).sum()
                rook[i, j] = 1 if diff == 1 else 0
    assert (adjacency == rook).all()


def test_predicted_parameters():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    profile = two_weight_profile(code)
    assert predicted_srg(profile).as_tuple() == (9, 4, 1, 2)
    assert predicted_dual_srg(profile).as_tuple() == (9, 4, 1, 2)
    ring, code = make("GF(4)", [[1, 0], [0, 1]])
    profile = two_weight_profile(code)
    assert predicted_srg(profile).as_tuple() == (16, 6, 2, 2)
    assert predicted_dual_srg(profile).as_tuple() == (16, 6, 2, 2)


def test_predicted_rejects_non_integral():
    synthetic = __import__("frobcode.codes", fromlist=["TwoWeightProfile"])
    profile = synthetic.TwoWeightProfile(
        n=2, size=9, b0=1, w1=Fraction(3, 2), w2=Fraction(4), b1=4, b2=4,
        index=Fraction(1, 2))
    with pytest.raises(IdentityCheckError):
        predicted_srg(profile)


def test_trivial_graph_structure():
    ring, code = make("GF(2)", [[1, 0], [0, 1]])
    graph = build_coset_graph(code)
    adjacency = graph.adjacency()
    measured = measure_srg(adjacency)
    assert measured.as_tuple() == (4, 2, 0, 2)
    assert measured.trivial
    # complete multipartite: adjacent exactly across the cosets of the
    # zero- and larger-weight subcode {00, 11}
    reps = graph.least_words().tolist()
    part = [min(r, [1 - v for v in r]) for r in reps]
    assert adjacency.tolist() == [[int(p != q) for q in part] for p in part]
    profile = two_weight_profile(code)
    assert predicted_srg(profile) == measured


def test_coset_graph_cayley_form():
    ring, code = make("prod(Z2,Z2)", [[3, 0, 2, 1], [1, 1, 1, 1]])
    assert code.b0 == 2
    graph = build_coset_graph(code)
    reps = graph.messages
    assert len(reps) == 8
    assert (np.diff(encode_vectors(reps, ring.order)) > 0).all()
    # each message differs from its vertex's least message by a message
    # of a zero-weight word, and every vertex has b0 |ker G| messages
    x = enumerate_vectors(ring.order, code.k)
    offsets = ring.add_table[x, ring.neg_table[reps[graph.vertices]]]
    assert (code.table.word_numerator(
        combine_rows(ring, code.generator, offsets)) == 0).all()
    assert np.bincount(graph.vertices).tolist() == [2] * 8
    # by the least word of each vertex: the zero coset, the six
    # smaller-weight cosets, then the larger-weight coset
    order = np.lexsort(graph.least_words().T[::-1])
    assert graph.connection[order].tolist() == [False] + [True] * 6 + [False]
    assert coset_graph_srg(graph).as_tuple() == (8, 6, 4, 6)


def test_weight_change_names_the_word_and_its_shift():
    # with w(0,1) = 0 and w(1,0) = 3 the zero-weight words {000, 202}
    # are closed, but the shift 202 takes 131, of weight 3, to 333, of
    # weight 9
    ring, code = make("prod(Z2,Z2)", [[1, 3, 1]])
    assert ring.labels[1:] == ["(1,1)", "(0,1)", "(1,0)"]
    table = WeightTable(ring, np.array([0, 0, 0, 3]), 1)
    bent = LinearCode(ring, code.generator, table)
    with pytest.raises(IdentityCheckError,
                       match="^weights change under zero-weight shifts$"
                       ) as info:
        build_coset_graph(bent)
    assert info.value.witness == {"word": [3, 3, 3], "shift": [2, 0, 2]}


def test_coset_graph_time_does_not_grow_with_b0():
    # R^2 over eight copies of Z2 has b0 = 2^14: one pass over the code
    # per zero-weight word took about a minute
    script = (
        "import numpy as np\n"
        "from frobcode.codes import build_code\n"
        "from frobcode.graphs import build_coset_graph, coset_graph_srg\n"
        "from frobcode.rings import ring_from_text\n"
        "ring = ring_from_text('prod(' + ','.join(['Z2'] * 8) + ')')\n"
        "code = build_code(ring, np.eye(2, dtype=np.int32))\n"
        "srg = coset_graph_srg(build_coset_graph(code))\n"
        "print(code.b0, srg.as_tuple(), srg.trivial)\n")
    src = os.path.dirname(os.path.dirname(frobcode.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get(
                   "PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "16384 (4, 2, 0, 2) True\n", "")


def test_adjacency_is_refused_past_the_cap(monkeypatch):
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    monkeypatch.setenv("FROBCODE_CAP", "80")
    graph = build_coset_graph(code)
    assert coset_graph_srg(graph).as_tuple() == (9, 4, 1, 2)
    with pytest.raises(CapExceededError, match="exceeds cap 80$"):
        graph.adjacency()
    # an explicit cap overrides the environment's, either way
    assert graph.adjacency(81).shape == (9, 9)
    monkeypatch.setenv("FROBCODE_CAP", "81")
    assert graph.adjacency().shape == (9, 9)
    with pytest.raises(CapExceededError, match="exceeds cap 80$"):
        graph.adjacency(80)


def halves_code(spec, k):
    """One column per nonzero vector of the span of the first k/2 unit
    vectors and of the span of the rest: a two-weight code."""
    ring = ring_from_text(spec)
    basis = np.eye(k, dtype=np.int32)
    columns = []
    for part in (basis[:k // 2], basis[k // 2:]):
        words = row_space(ring, part)
        columns.append(words[(words != 0).any(axis=1)])
    generator = np.ascontiguousarray(np.concatenate(columns).T)
    return build_code(ring, generator)


def test_coset_graph_measurement_memory_is_bounded():
    # srg(1024,62,30,2): the dense A @ A path peaked at 50.6 MiB on it
    code = halves_code("GF(2)", 10)
    tracemalloc.start()
    try:
        params = coset_graph_srg(build_coset_graph(code))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params.as_tuple() == (1024, 62, 30, 2)
    assert peak < 4 * 2 ** 20


# ------------------------------------------ agreement with the dense oracle


def srg_outcome(measure):
    """The parameters, or the message and witness of the failure."""
    try:
        return measure()
    except IdentityCheckError as exc:
        return str(exc), exc.witness


def assert_matches_srg_oracle(code):
    """The Cayley-form graph has the dense oracle's representatives and
    adjacency, and its measurement gives the same parameters or fails
    with the same message and witness.  Returns that outcome."""
    reps, dense = oracle_coset_graph(code)
    graph = build_coset_graph(code)
    words = graph.least_words()
    order = np.lexsort(words.T[::-1])
    assert (words[order] == reps).all()
    assert (graph.adjacency()[np.ix_(order, order)] == dense).all()
    expected = srg_outcome(lambda: measure_srg(dense))
    assert srg_outcome(lambda: coset_graph_srg(graph)) == expected
    return expected


SEARCH_CASES = [
    ("GF(2)", 2, 6), ("GF(3)", 2, 6), ("GF(4)", 2, 6), ("Z4", 2, 6),
    ("Z8", 1, 6), ("Z9", 1, 6), ("prod(GF(2),GF(3))", 1, 7),
    ("M2(GF(2))", 1, 6),
]


@pytest.mark.parametrize("spec,k,n_max", SEARCH_CASES,
                         ids=[case[0] for case in SEARCH_CASES])
def test_every_search_hit_matches_srg_oracle(spec, k, n_max):
    ring = ring_from_text(spec)
    records = search_modular_codes(ring, k, n_max)
    hits = [rec for rec in records if rec.classification == "two-weight"]
    assert hits
    for rec in hits:
        code = build_code(ring, generator_for_record(ring, rec))
        assert assert_matches_srg_oracle(code) == rec.srg


# Random generators with k <= 2 and n <= 4 over products of chain rings,
# where nonzero words can have weight zero (b0 > 1) and distinct
# messages can share a word (|C| < order^k, a nontrivial ker G): the
# parameters each ring must show with b0 > 1, and the failures it must
# show.
PRODUCT_CASES = {
    "prod(Z2,Z2)": ({(4, 2, 0, 2), (8, 6, 4, 6)}, set()),
    "prod(Z2,Z2,Z2)": ({(4, 2, 0, 2)}, set()),
    "prod(Z4,Z2)": ({(8, 6, 4, 6), (16, 6, 2, 2)},
                    {"adjacent pairs disagree on common neighbours",
                     "nonadjacent pairs disagree on common neighbours"}),
}


@pytest.mark.parametrize("spec", sorted(PRODUCT_CASES))
def test_random_product_ring_codes_match_srg_oracle(spec):
    ring = ring_from_text(spec)
    rng = np.random.default_rng(0)
    with_fat_zero = set()
    with_kernel = set()
    failures = set()
    for _ in range(300):
        k, n = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        generator = rng.integers(0, ring.order, size=(k, n)).astype(np.int32)
        if (generator == 0).all(axis=0).any():
            continue
        code = build_code(ring, generator)
        if two_weight_profile(code) is None:
            continue
        outcome = assert_matches_srg_oracle(code)
        if code.size < ring.order ** code.k:
            with_kernel.add(code.b0 > 1)
        if isinstance(outcome, SrgParams):
            if code.b0 > 1:
                with_fat_zero.add(outcome.as_tuple())
        else:
            failures.add(outcome[0])
    params, messages = PRODUCT_CASES[spec]
    assert params <= with_fat_zero
    assert with_kernel == {False, True}
    assert failures == messages


# --------------------------------------------------- difference sets


def brute_difference_counts(ring, group, omega):
    """Ordered difference representation counts, by dictionary."""
    from frobcode.spans import encode_vectors

    gkeys = [int(k) for k in encode_vectors(group, ring.order)]
    counts = {k: 0 for k in gkeys}
    neg = np.argmax(ring.add_table == 0, axis=1)
    for a in omega:
        for b in omega:
            nb = neg[b]
            diff = tuple(int(ring.add_table[x, y]) for x, y in zip(a, nb))
            key = int(encode_vectors(
                np.array([diff], dtype=np.int32), ring.order)[0])
            counts[key] += 1
    return counts


def test_pds_check_against_brute_force():
    from frobcode.spans import encode_vectors, enumerate_vectors

    ring = ring_from_text("GF(3)")
    group = enumerate_vectors(3, 2)
    omega = np.array([[0, 1], [0, 2], [1, 0], [2, 0]], dtype=np.int32)
    cert = pds_check(ring, group, omega)
    assert cert is not None
    assert (cert.group_size, cert.set_size, cert.lam, cert.mu) \
        == (9, 4, 1, 2)
    assert cert.srg_params().as_tuple() == (9, 4, 1, 2)
    # brute-force the ordered difference counts
    counts = brute_difference_counts(ring, group, omega.tolist())
    okeys = {int(k) for k in encode_vectors(omega, 3)}
    for key, count in counts.items():
        if key == 0:
            assert count == 4
        elif key in okeys:
            assert count == cert.lam
        else:
            assert count == cert.mu


def test_pds_check_rejects_asymmetric_and_irregular():
    from frobcode.spans import enumerate_vectors

    ring = ring_from_text("GF(3)")
    group = enumerate_vectors(3, 2)
    asymmetric = np.array([[0, 1]], dtype=np.int32)
    assert pds_check(ring, group, asymmetric) is None
    # any union of scalar lines in the plane over GF(3) is a partial
    # difference set, so a ragged-difference witness needs another group
    two_lines = np.array([[0, 1], [0, 2], [1, 1], [2, 2]], dtype=np.int32)
    assert pds_check(ring, group, two_lines) is not None
    z8 = ring_from_text("Z8")
    line = np.arange(8, dtype=np.int32)[:, None]
    ragged = np.array([[1], [7]], dtype=np.int32)
    assert pds_check(z8, line, ragged) is None
    outside = np.array([[0, 1], [0, 2]], dtype=np.int32)
    small_group = np.array([[0, 0], [0, 1], [0, 2]], dtype=np.int32)
    cert = pds_check(ring, small_group, outside)
    assert cert is not None  # {±1} inside the line Z3 is a PDS
    with pytest.raises(PreconditionError):
        pds_check(ring, small_group,
                  np.array([[1, 0], [2, 0]], dtype=np.int32))


def cayley_graph(ring, group_rows, connection_rows):
    """Oracle: the adjacency matrix of the Cayley graph on the given
    abelian group of vectors with the given symmetric connection set,
    by a dense Python loop over a dictionary of keys."""
    lookup = {int(k): i for i, k in enumerate(encode_vectors(group_rows,
                                                               ring.order))}
    A = np.zeros((len(group_rows), len(group_rows)), dtype=np.int64)
    for d in connection_rows:
        shifted = ring.add_table[group_rows, d[None, :]]
        for i, k in enumerate(encode_vectors(shifted, ring.order)):
            A[i, lookup[int(k)]] = 1
    return A


def test_cayley_graph_matches_coset_graph():
    from frobcode.spans import enumerate_vectors

    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    graph = build_coset_graph(code)
    group = enumerate_vectors(3, 2)
    omega = np.array([[0, 1], [0, 2], [1, 0], [2, 0]], dtype=np.int32)
    adjacency = cayley_graph(ring, group, omega)
    assert (adjacency == graph.adjacency()).all()


# ------------------------------------------------------- the equivalence


def test_equivalence_two_weight_case():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    report = equivalence_check(code)
    assert report.two_weight
    assert report.pds is not None
    assert report.pds.srg_params().as_tuple() == (9, 4, 1, 2)
    assert not report.omega_with_zero_submodule
    assert not report.complement_submodule
    assert report.omega_size == 4
    assert report.ambient_size == 9


def test_equivalence_one_weight_case():
    ring, code = make("Z4", [[1, 2, 3]])
    report = equivalence_check(code)
    assert not report.two_weight
    assert report.omega_with_zero_submodule
    assert not report.complement_submodule
    assert report.two_weight == (
        report.pds is not None and not report.omega_with_zero_submodule)


def test_equivalence_trivial_two_weight_case():
    ring, code = make("Z4", [[1, 3]])
    report = equivalence_check(code)
    assert report.two_weight
    assert report.pds is not None
    assert not report.omega_with_zero_submodule
    assert report.complement_submodule


def test_complement_claim_reported_when_weight_vanishes_off_zero():
    # over prod(Z2,Z2) the weight vanishes on the unit (1,1); the code
    # with columns (0,1), (1,0) is trivial two-weight, but the
    # complement {0, (1,1)} of its points is no submodule
    ring, code = make("prod(Z2,Z2)", [[2, 3]])
    assert code.table.zero_set() != {0}
    report = equivalence_check(code)
    assert report.two_weight
    assert two_weight_profile(code).trivial
    assert not report.complement_submodule


@pytest.mark.parametrize("text,k,n_max", [("prod(Z2,Z2)", 2, 3),
                                          ("prod(Z2,Z2,Z2)", 1, 3),
                                          ("prod(Z4,Z2)", 1, 3)])
def test_complement_claim_has_counterexamples(text, k, n_max):
    # the search certifies every candidate; on these rings some b0 = 1
    # candidates disagree with the complement claim, which therefore
    # needs its hypothesis that the weight vanishes only at 0
    ring = ring_from_text(text)
    records = search_modular_codes(ring, k, n_max)
    disagree = [r for r in records if r.equivalence is not None
                and r.equivalence.complement_submodule
                != (r.profile is not None and r.profile.trivial)]
    assert disagree


def test_equivalence_needs_trivial_zero_class():
    ring, code = make("prod(Z2,Z2)", [[1, 0], [0, 1]])
    assert code.b0 == 4
    with pytest.raises(PreconditionError):
        equivalence_check(code)


def test_column_module_of_identity_code():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    module, keys = column_module(ring, code.generator)
    assert len(module) == 9
    assert keys.tolist() == list(range(9))
