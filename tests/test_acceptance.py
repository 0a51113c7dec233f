"""Acceptance gate: one test per criterion, each printing a single
pass/fail line with its wall-clock time (run with -s to see them)."""

import contextlib
import io
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from frobcode.cli import main
from frobcode.codes import build_code, sweep_code_identities
from frobcode.duality import dual_pipeline
from frobcode.errors import (
    CapExceededError,
    CharacterError,
    PreconditionError,
    ReduciblePolynomialError,
    SpecParseError,
    ZeroColumnError,
)
from frobcode.graphs import build_coset_graph, measure_srg, predicted_srg
from frobcode.homweight import identity_suite, weight_table
from frobcode.rings import FiniteRing, ring_from_text
from frobcode.search import generator_for_record, search_modular_codes
from frobcode.spans import encode_vectors, enumerate_vectors, lookup
from span_oracle import check_row_column_cardinality, code_words

SUITE_RINGS = ["Z4", "Z6", "Z8", "Z9", "prod(Z2,Z2)", "prod(Z2,Z3)",
               "GF(4)", "M2(GF(2))"]
SWEEP_RINGS = ["GF(2)", "GF(3)", "GF(4)", "Z4"]

_SWEEP = {}


def sweep():
    """Search all four rings once (k=2, n up to 8) and cache the
    certified records for the later criteria."""
    if not _SWEEP:
        for text in SWEEP_RINGS:
            ring = ring_from_text(text)
            _SWEEP[text] = (ring, search_modular_codes(ring, 2, 8))
    return _SWEEP


def hits():
    for text, (ring, records) in sweep().items():
        for rec in records:
            if rec.classification == "two-weight":
                yield text, ring, rec


@contextmanager
def criterion(number, label, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({label}): PASS ({elapsed:.1f}s)")
    assert elapsed < budget


def test_criterion_1_weight_ground_truth():
    with criterion(1, "weight ground truth", 1.0):
        z4 = ring_from_text("Z4")
        table = weight_table(z4)
        assert [table.value(i) for i in range(4)] == [0, 1, 2, 1]
        for q, spec in [(2, "GF(2)"), (3, "GF(3)"), (4, "GF(2^2)"),
                        (5, "GF(5)"), (8, "GF(2^3)"), (9, "GF(3^2)")]:
            ring = ring_from_text(spec)
            table = weight_table(ring)
            assert table.value(0) == 0
            expected = Fraction(q, q - 1)
            assert all(table.value(i) == expected for i in range(1, q))


def test_criterion_2_identity_suite():
    with criterion(2, "weight identity suite", 60.0):
        for spec in SUITE_RINGS:
            ring = ring_from_text(spec)
            executed = [name for name, _ in identity_suite(ring, full=True)]
            assert "coset-sums" in executed
            assert "zero-set" in executed
            assert "sum-of-squares" in executed
            assert "word-correlation-k2" in executed


def test_criterion_3_span_cardinality():
    with criterion(3, "row and column span sizes", 60.0):
        for spec in SUITE_RINGS:
            ring = ring_from_text(spec)
            rng = np.random.default_rng(0)
            for _ in range(100):
                m = int(rng.integers(1, 4))
                n = int(rng.integers(1, 4))
                matrix = rng.integers(0, ring.order, size=(m, n))
                check_row_column_cardinality(ring, matrix.astype(np.int32))


def zero_and_larger_closed(code):
    """Whether the words of weight 0 or of the larger weight w2 are
    closed under addition, i.e. form a subcode."""
    ring = code.ring
    w2 = int(code.profile.w2 * code.denominator)
    words = code_words(code)
    numerators = code.table.word_numerator(words)
    rows = words[(numerators == 0) | (numerators == w2)]
    sums = ring.add_table[rows[:, None, :], rows[None, :, :]]
    keys = np.sort(encode_vectors(rows, ring.order))
    return bool(lookup(keys, encode_vectors(sums.reshape(-1, code.n),
                                            ring.order))[1].all())


def test_criterion_4_graphs_of_search_hits():
    with criterion(4, "graph parameters of search hits", 600.0):
        nontrivial = 0
        target = []
        for text, ring, rec in hits():
            code = build_code(ring, generator_for_record(ring, rec))
            graph = build_coset_graph(code)
            measured = measure_srg(graph.adjacency())
            assert measured == predicted_srg(rec.profile)
            assert measured == rec.srg
            triv = measured.common_nonadjacent == measured.degree
            assert (rec.weights[0] == rec.n) == triv
            # trivial exactly when the zero- and larger-weight words form
            # a subcode, whose cosets are then the graph's cocliques
            assert zero_and_larger_closed(code) == triv
            assert measured.trivial == triv
            if not measured.trivial:
                nontrivial += 1
            if text == "GF(3)" and rec.weights == (Fraction(3, 2),
                                                   Fraction(3)):
                target.append(rec)
        assert nontrivial > 0
        assert target
        assert all(rec.srg.as_tuple() == (9, 4, 1, 2) for rec in target)


def test_criterion_5_dual_transfer():
    with criterion(5, "dual code transfer", 600.0):
        for text, ring, rec in hits():
            if rec.b0 != 1:
                continue
            p = rec.profile
            assert rec.dual is not None
            spread = p.w2 - p.w1
            w1d = (p.w2 - p.n - p.index) * p.size / spread
            w2d = (p.w2 - p.n) * p.size / spread
            assert rec.dual.w1_dual == w1d
            assert rec.dual.w2_dual == w2d
            assert rec.dual.dual_size == p.size
            mu = p.w1 * p.w2 / (p.index ** 2 * p.size)
            lam = (2 * p.n - p.w1 - p.w2) / p.index + mu
            expect = (p.size, Fraction(p.n, p.index), lam, mu)
            assert all(v.denominator == 1 for v in map(Fraction, expect))
            assert rec.dual.srg.as_tuple() == tuple(int(v) for v in expect)
            assert rec.dual.trivial == rec.srg.trivial


def test_criterion_6_difference_set_equivalence():
    with criterion(6, "difference set equivalence", 600.0):
        for text, (ring, records) in sweep().items():
            for rec in records:
                if rec.b0 != 1:
                    continue
                eq = rec.equivalence
                assert eq is not None
                if rec.classification == "two-weight":
                    assert eq.pds is not None
                    assert not eq.omega_with_zero_submodule
                    assert (eq.pds.srg_params().as_tuple()
                            == rec.dual.srg.as_tuple())
                    assert eq.complement_submodule == rec.srg.trivial
                else:
                    assert eq.pds is None or eq.omega_with_zero_submodule
                    assert eq.omega_with_zero_submodule == (
                        rec.classification == "one-weight")
                    assert not eq.complement_submodule


def test_criterion_7_shift_identity_sweeps():
    with criterion(7, "shift identity sweeps", 300.0):
        for text, ring, rec in hits():
            code = build_code(ring, generator_for_record(ring, rec))
            assert sweep_code_identities(code) == [
                "code-correlation", "class-coset-sums",
                "coordinate-identities"]


def test_criterion_8_robustness():
    with criterion(8, "robustness and error classes", 60.0):
        with pytest.raises(SpecParseError):
            ring_from_text("Z4x")
        with pytest.raises(ReduciblePolynomialError):
            ring_from_text("GF(2^2,poly=1,0,1)")
        z4 = ring_from_text("Z4")
        with pytest.raises(ZeroColumnError):
            build_code(z4, np.array([[1, 0]], dtype=np.int32))
        with pytest.raises(CapExceededError):
            enumerate_vectors(2, 30)
        with pytest.raises(CharacterError):
            FiniteRing(z4.spec, z4.labels, z4.add_table, z4.mul_table,
                       (0, 2, 0, 2), 4)
        with pytest.raises(PreconditionError):
            dual_pipeline(build_code(z4, np.array([[1, 2, 3]],
                                                  dtype=np.int32)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["ring", "Z4x"]) == 2
            assert main(["ring", "Z1"]) == 2
            assert main(["verify", "Z4"]) == 0
            assert main(["verify", "Z4", "--inject-fault"]) == 1
        text = err.getvalue()
        assert "verification failure" in text
        assert "witness" in text
