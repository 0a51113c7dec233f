"""Vector encoding, module spans, and row/column space facts.

The span oracle enumerates every coefficient tuple directly, so closure
results are checked against a computation that shares no code with the
incremental span builder.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcode import spans

from frobcode.errors import CapExceededError
from frobcode.rings import opposite_ring, ring_from_text
from frobcode.spans import (
    apply_matrix,
    column_module,
    combine_rows,
    decode_vectors,
    encode_vectors,
    enumerate_vectors,
    is_submodule,
    lookup,
    point_ids,
    row_space,
    scalar_orbit,
    span,
    unit_orbit,
)
from span_oracle import check_row_column_cardinality, rn_column_space


def brute_span(ring, generators, side):
    """All sums of scalar multiples, by direct enumeration of every
    coefficient tuple."""
    n = len(generators[0])
    out = set()
    for coeffs in itertools.product(range(ring.order),
                                    repeat=len(generators)):
        acc = [0] * n
        for c, g in zip(coeffs, generators):
            for j in range(n):
                term = (ring.mul_table[c, g[j]] if side == "left"
                        else ring.mul_table[g[j], c])
                acc[j] = ring.add_table[acc[j], term]
        out.add(tuple(acc))
    return out


def test_encode_decode_round_trip():
    rng = np.random.default_rng(0)
    for order, n in [(2, 3), (6, 2), (16, 4), (9, 3)]:
        vecs = rng.integers(0, order, size=(50, n)).astype(np.int32)
        keys = encode_vectors(vecs, order)
        back = decode_vectors(keys, order, n)
        assert (back == vecs).all()


@st.composite
def rows_near_int64(draw):
    """Rows, and query rows, over a small order, one below to two past
    the longest length whose keys are int64.  Each row is a base row
    with a few entries changed, so rows share long prefixes."""
    order = draw(st.sampled_from([2, 3, 4, 9, 16]))
    longest = max(n for n in range(1, 63) if order ** n <= 1 << 62)
    n = longest + draw(st.integers(-1, 2))
    entry = st.integers(0, order - 1)
    base = draw(st.lists(entry, min_size=n, max_size=n))
    edits = st.lists(st.tuples(st.integers(0, n - 1), entry), max_size=3)

    def edited(changes):
        row = list(base)
        for j, v in changes:
            row[j] = v
        return row

    rows = [edited(c) for c in draw(st.lists(edits, min_size=1,
                                             max_size=10))]
    queries = [edited(c) for c in draw(st.lists(edits, max_size=10))]
    return (order, longest, np.array(rows, dtype=np.int32),
            np.array(queries, dtype=np.int32).reshape(-1, n))


@settings(max_examples=200, deadline=None, database=None)
@given(rows_near_int64())
def test_keys_order_rows_on_both_sides_of_int64(case):
    order, longest, rows, queries = case
    keys = encode_vectors(rows, order)
    assert (keys.dtype == np.int64) == (rows.shape[1] <= longest)
    assert (decode_vectors(keys, order, rows.shape[1]) == rows).all()
    by_key = [tuple(r) for r in rows[np.argsort(keys, kind="stable")]]
    assert by_key == sorted(tuple(r) for r in rows.tolist())
    members = np.unique(keys)
    qkeys = encode_vectors(queries, order)
    pos, found = lookup(members, qkeys)
    present = {tuple(r) for r in rows.tolist()}
    assert found.tolist() == [tuple(q) in present for q in queries.tolist()]
    assert (members[pos[found]] == qkeys[found]).all()


@settings(max_examples=50, deadline=None, database=None)
@given(rows_near_int64())
def test_point_ids_on_both_sides_of_int64(case):
    # a dual's points are read from rows as long as the primal code
    order, _, rows, _ = case
    ring = ring_from_text(f"GF({order})")
    pids, sizes = point_ids(ring, rows)
    for row, pid, size in zip(rows, pids, sizes):
        orbit = unit_orbit(ring, row)
        assert pid == encode_vectors(orbit, order).min()
        assert size == len(orbit)


def test_enumerate_vectors_is_lexicographic():
    vecs = enumerate_vectors(3, 2)
    assert vecs.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1],
                             [1, 2], [2, 0], [2, 1], [2, 2]]


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        enumerate_vectors(4, 11, cap=1 << 20)


def test_enumerate_needs_int64_positions():
    # under a cap past int64, the int64 keys the rows are decoded from
    # bound the enumeration; nothing is built
    with pytest.raises(CapExceededError, match="exceeds an int64 range"):
        enumerate_vectors(2, 63, cap=1 << 64)


@pytest.mark.parametrize("text", ["Z6", "GF(4)", "M2(GF(2))"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_span_matches_brute_force(text, side):
    ring = ring_from_text(text)
    rng = np.random.default_rng(0)
    for _ in range(20):
        g_count = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        gens = [tuple(int(v) for v in rng.integers(0, ring.order, size=n))
                for _ in range(g_count)]
        # a right span over R is the left span over its opposite ring
        rows, keys = span(ring if side == "left" else opposite_ring(ring),
                          gens)
        expected = brute_span(ring, gens, side)
        assert len(rows) == len(expected)
        assert {tuple(int(v) for v in row) for row in rows} == expected
        assert (keys == encode_vectors(rows, ring.order)).all()
        assert (np.diff(keys) > 0).all()


def test_span_membership_queries():
    z4 = ring_from_text("Z4")
    rows, keys = span(z4, [(2, 0), (0, 2)])
    assert len(rows) == 4
    queries = encode_vectors(np.array([[2, 2], [1, 0]]), z4.order)
    assert lookup(keys, queries)[1].tolist() == [True, False]


def test_unit_orbit_and_point_ids():
    z6 = ring_from_text("Z6")
    orbit = unit_orbit(z6, np.array([2, 0], dtype=np.int32))
    assert sorted(tuple(r) for r in orbit.tolist()) == [(2, 0), (4, 0)]
    # every member of an orbit shares the canonical id and orbit size
    pids, sizes = point_ids(z6, np.array([[5, 0], [1, 0], [2, 0], [4, 0]]))
    assert pids.tolist() == [6, 6, 12, 12]
    assert sizes.tolist() == [2, 2, 2, 2]
    # the id is the smallest encoded member: (1,0) encodes to 6
    assert int(encode_vectors(
        np.array([[1, 0]], dtype=np.int32), 6)[0]) == 6


def test_combine_and_apply_are_transposes():
    ring = ring_from_text("M2(GF(2))")
    rng = np.random.default_rng(1)
    G = rng.integers(0, 16, size=(2, 3)).astype(np.int32)
    xs = rng.integers(0, 16, size=(5, 2)).astype(np.int32)
    rows = combine_rows(ring, G, xs)
    for i, x in enumerate(xs):
        by_hand = [0, 0, 0]
        for j in range(3):
            acc = 0
            for t in range(2):
                acc = ring.add_table[acc, ring.mul_table[x[t], G[t, j]]]
            by_hand[j] = acc
        assert rows[i].tolist() == by_hand
    ys = rng.integers(0, 16, size=(5, 3)).astype(np.int32)
    cols = apply_matrix(ring, G, ys)
    for i, y in enumerate(ys):
        by_hand = [0, 0]
        for t in range(2):
            acc = 0
            for j in range(3):
                acc = ring.add_table[acc, ring.mul_table[G[t, j], y[j]]]
            by_hand[t] = acc
        assert cols[i].tolist() == by_hand


POINT_RINGS = {spec: ring_from_text(spec) for spec in
               ("Z4", "Z6", "GF(4)", "M2(GF(2))", "prod(Z2,Z2)")}


@st.composite
def ring_rows(draw, max_rows):
    """A small ring and random rows of length at most 3 over it."""
    ring = POINT_RINGS[draw(st.sampled_from(sorted(POINT_RINGS)))]
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, ring.order - 1),
                                  min_size=k, max_size=k),
                         min_size=1, max_size=max_rows))
    return ring, np.array(rows, dtype=np.int32)


@settings(max_examples=100, deadline=None, database=None)
@given(ring_rows(12), st.integers(1, 64))
def test_point_ids_match_unit_orbits(case, block_entries):
    # the point of a row is the least encoded member of its brute-force
    # right unit orbit, and the orbit size its row count; blocks of a few
    # orbit keys give the same answer as one block
    ring, rows = case
    with mock.patch.object(spans, "BLOCK_ENTRIES", block_entries):
        pids, sizes = point_ids(ring, rows)
    for row, pid, size in zip(rows, pids, sizes):
        orbit = unit_orbit(ring, row)
        assert pid == encode_vectors(orbit, ring.order).min()
        assert size == len(orbit)


@settings(max_examples=100, deadline=None, database=None)
@given(ring_rows(4))
def test_column_module_matches_rn_oracle(case):
    # rows of the drawn array are the columns of G (k <= 3, n <= 4)
    ring, columns = case
    G = columns.T.copy()
    module, preimages = column_module(ring, G)
    keys = encode_vectors(module, ring.order)
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(module, rn_column_space(ring, G))
    assert np.array_equal(apply_matrix(ring, G, preimages), module)


@settings(max_examples=100, deadline=None, database=None)
@given(ring_rows(3))
def test_row_space_and_column_module_have_equal_size(case):
    # over a Frobenius ring |{x G}| = |{G y}| for every matrix G; the
    # drawn rows are those of G (k <= 3 rows, n <= 3 columns)
    ring, G = case
    assert len(row_space(ring, G)) == len(column_module(ring, G)[0])


@pytest.mark.parametrize("text", ["Z4", "Z6", "GF(4)", "M2(GF(2))"])
def test_row_and_column_spaces_same_size(text):
    ring = ring_from_text(text)
    rng = np.random.default_rng(2)
    for _ in range(15):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        mat = rng.integers(0, ring.order, size=(m, n)).astype(np.int32)
        rows = row_space(ring, mat)
        cols, _ = column_module(ring, mat)
        assert len(rows) == len(cols)
        assert np.array_equal(cols, rn_column_space(ring, mat))
        assert check_row_column_cardinality(ring, mat) == len(rows)


def test_is_submodule():
    z4 = ring_from_text("Z4")
    good = np.array([[0, 0], [2, 0], [0, 2], [2, 2]], dtype=np.int32)
    assert is_submodule(z4, good)
    missing_zero = np.array([[2, 0], [0, 2], [2, 2]], dtype=np.int32)
    assert not is_submodule(z4, missing_zero)
    not_closed = np.array([[0, 0], [1, 0]], dtype=np.int32)
    assert not is_submodule(z4, not_closed)


def unchunked_is_submodule(ring, vectors, side):
    """is_submodule with every pair sum and every scalar multiple built
    at once, as it was before the pair sums were taken in blocks."""
    vectors = np.asarray(vectors, dtype=np.int32)
    if vectors.ndim != 2 or len(vectors) == 0:
        return False
    keys = np.sort(encode_vectors(vectors, ring.order))

    def covered(rows):
        rk = encode_vectors(rows.reshape(-1, vectors.shape[1]), ring.order)
        pos = np.clip(np.searchsorted(keys, rk), 0, len(keys) - 1)
        return bool((keys[pos] == rk).all())

    all_scalars = np.arange(ring.order, dtype=np.int32)
    if side == "left":
        scaled = ring.mul_table[all_scalars[:, None, None],
                                vectors[None, :, :]]
    else:
        scaled = ring.mul_table[vectors[None, :, :],
                                all_scalars[:, None, None]]
    return (covered(np.zeros((1, vectors.shape[1]), dtype=np.int32))
            and covered(ring.add_table[vectors[:, None, :],
                                       vectors[None, :, :]])
            and covered(scaled))


SUBMODULE_RINGS = {spec: ring_from_text(spec)
                   for spec in ("Z4", "GF(4)", "prod(Z2,Z2)", "M2(GF(2))")}


def additive_closure(ring, rows):
    while True:
        sums = ring.add_table[rows[:, None, :], rows[None, :, :]]
        closed = np.unique(
            np.concatenate([rows, sums.reshape(-1, rows.shape[1])]), axis=0)
        if len(closed) == len(rows):
            return rows
        rows = closed


@st.composite
def row_sets(draw):
    """Random rows over a small ring: as drawn, closed under addition
    only, closed under the scalar action only, or closed into the span
    they generate, so that every check of is_submodule decides some
    cases."""
    ring = SUBMODULE_RINGS[draw(st.sampled_from(sorted(SUBMODULE_RINGS)))]
    n = draw(st.integers(1, 2))
    side = draw(st.sampled_from(["left", "right"]))
    rows = draw(st.lists(st.lists(st.integers(0, ring.order - 1),
                                  min_size=n, max_size=n),
                         min_size=1, max_size=12))
    rows = np.array(rows, dtype=np.int32)
    closure = draw(st.sampled_from(["none", "additive", "scalar", "span"]))
    if closure == "additive":
        rows = additive_closure(ring, rows)
    elif closure == "scalar":
        scalars = np.arange(ring.order, dtype=np.int32)
        rows = np.unique(np.concatenate(
            [scalar_orbit(ring, scalars, row, side) for row in rows]), axis=0)
    elif closure == "span":
        rows, _ = span(ring if side == "left" else opposite_ring(ring), rows)
    return ring, rows, side


@settings(max_examples=100, deadline=None, database=None)
@given(row_sets(), st.integers(1, 64))
def test_is_submodule_blocks_match_unchunked(case, block_entries):
    ring, rows, side = case
    # a left submodule over R is a right submodule over its opposite
    acting = ring if side == "right" else opposite_ring(ring)
    with mock.patch.object(spans, "BLOCK_ENTRIES", block_entries):
        chunked = is_submodule(acting, rows)
    assert chunked == unchunked_is_submodule(ring, rows, side)
