"""The batched identity evaluators against the brute-force oracle in
identity_oracle.py, the orbit- and coset-reduced ideal and word sweeps
against the unreduced ones there, and the sweeps on corrupted weight
tables.

The corrupted tables move the weight of a whole unit orbit, so they
pass the zero-set and unit-invariance checks and reach the identity
sweeps.  Each sweep must then fail the same check with the same first
witness as the scalar helpers it replaced did; the expected witnesses
were recorded with those helpers.
"""

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcode import codes, homweight
from frobcode.codes import (
    LinearCode,
    build_code,
    coordinate_weight_sums,
    shifted_weight_sums,
    sweep_code_identities,
    sweep_shifts,
    two_weight_profile,
)
from frobcode.errors import IdentityCheckError
from frobcode.homweight import (
    _fixing_unit_count,
    _orbit_count,
    _sampled_correlation_vectors,
    all_one_sided_ideals,
    check_correlation_ideal,
    check_correlation_vectors,
    check_coset_sums,
    correlation_vectors,
    ideal_correlation,
    weight_table,
)
from frobcode.rings import FiniteRing, opposite_ring, ring_from_text
from frobcode.search import generator_for_record, search_modular_codes
from frobcode.spans import combine_rows, enumerate_vectors, point_ids
import identity_oracle
from identity_oracle import (
    all_one_sided_ideals_every_element,
    bump_unit_orbit,
    check_correlation_ideal_every_r,
    check_correlation_vectors_every_pair,
    check_coset_sums_every_shift,
    class_coset_sum_lhs,
    code_correlation_lhs,
    coordinate_class_sum_lhs,
    coordinate_correlation_lhs,
    ideal_correlation_lhs,
    word_correlation_lhs,
)

RINGS = ["Z4", "Z6", "GF(4)", "M2(GF(2))", "prod(Z2,Z2)"]
# (ring, k, n_max) of the searches whose modular codes are the samples
CODE_SEARCHES = [("Z4", 2, 3), ("Z6", 1, 4), ("GF(4)", 2, 3),
                 ("M2(GF(2))", 1, 3), ("prod(Z2,Z2)", 2, 3)]
SETTINGS = settings(max_examples=60, deadline=None, database=None)

_CODES = {}


def modular_codes(spec):
    if spec not in _CODES:
        _, k, n_max = next(c for c in CODE_SEARCHES if c[0] == spec)
        ring = ring_from_text(spec)
        _CODES[spec] = [build_code(ring, generator_for_record(ring, rec))
                        for rec in search_modular_codes(ring, k, n_max)]
    return _CODES[spec]


def word_pair(ring, table, g, h, s):
    """The word correlation evaluator at one pair (g, h) and shift s."""
    vecs = enumerate_vectors(ring.order, len(g))
    xg = combine_rows(ring, np.array([g], dtype=np.int32).T, vecs)
    xh = combine_rows(ring, np.array([h], dtype=np.int32).T, vecs)
    pids, sizes = point_ids(ring, [g, h])
    lhs, rhs, den = correlation_vectors(
        ring, table, table.numerators[xg.T], xh, s,
        np.array([[pids[0] == pids[1]]]), sizes[:1, None])
    return (Fraction(int(lhs[0, 0]), int(den[0, 0])),
            Fraction(int(rhs[0, 0]), int(den[0, 0])))


@SETTINGS
@given(st.data())
def test_ideal_correlation_matches_oracle(data):
    ring = ring_from_text(data.draw(st.sampled_from(RINGS)))
    table = weight_table(ring)
    ideal = data.draw(st.sampled_from(all_one_sided_ideals(ring, "left")))
    r = data.draw(st.integers(0, ring.order - 1))
    s = data.draw(st.integers(0, ring.order - 1))
    lhs, rhs, den = ideal_correlation(ring, table, ideal, np.array([r]),
                                      _fixing_unit_count(ring, ideal))
    expected = ideal_correlation_lhs(ring, table, ideal, r, s)
    assert Fraction(int(lhs[0, s]), den) == expected
    assert Fraction(int(rhs[0, s]), den) == expected


@SETTINGS
@given(st.data())
def test_word_correlation_matches_oracle(data):
    ring = ring_from_text(data.draw(st.sampled_from(RINGS)))
    table = weight_table(ring)
    k = data.draw(st.integers(1, 2))
    word = st.lists(st.integers(0, ring.order - 1), min_size=k,
                    max_size=k).filter(any)
    g, h = data.draw(word), data.draw(word)
    s = data.draw(st.integers(0, ring.order - 1))
    lhs, rhs = word_pair(ring, table, g, h, s)
    assert lhs == rhs == word_correlation_lhs(ring, table, g, h, s)


@SETTINGS
@given(st.data())
def test_code_identities_match_oracle(data):
    code = data.draw(st.sampled_from(
        modular_codes(data.draw(st.sampled_from(RINGS)))))
    order = code.ring.order
    d = data.draw(st.lists(st.integers(0, order - 1), min_size=code.n,
                           max_size=code.n))
    j = data.draw(st.integers(0, code.n - 1))
    dj = data.draw(st.integers(0, order - 1))
    ds = np.array([d], dtype=np.int32)

    # one row per identity: the correlation, then for a two-weight code
    # the smaller and the larger class
    profile = two_weight_profile(code)
    weights = () if profile is None else (profile.w1, profile.w2)
    lhs, rhs, dens = shifted_weight_sums(code, ds)
    expected = [code_correlation_lhs(code, d)] + [
        class_coset_sum_lhs(code, weight, d) for weight in weights]
    assert [Fraction(int(v), den) for v, den in zip(lhs[:, 0], dens)] \
        == [Fraction(int(v), den) for v, den in zip(rhs[:, 0], dens)] \
        == expected
    lhs, rhs, dens = coordinate_weight_sums(code, np.array([j]))
    expected = [coordinate_correlation_lhs(code, j, dj)] + [
        coordinate_class_sum_lhs(code, weight, j, dj)
        for weight in weights[:1]]
    assert [Fraction(int(v), den) for v, den in zip(lhs[:, 0, dj], dens)] \
        == [Fraction(int(v), den) for v, den in zip(rhs[:, 0, dj], dens)] \
        == expected


def test_word_evaluator_on_a_corrupted_table_matches_oracle():
    ring = ring_from_text("M2(GF(2))")
    table = bump_unit_orbit(ring, weight_table(ring), 1, 1)
    for g, h, s in (([13], [10], 8), ([13, 10], [8, 4], 4),
                    ([1, 0], [1, 0], 0)):
        lhs, _ = word_pair(ring, table, g, h, s)
        assert lhs == word_correlation_lhs(ring, table, g, h, s)


# ------------------------------------------------------------- faults

# (ring, element whose unit orbit is bumped, delta) -> the witnesses of
# the ideal sweep, the word sweeps for k = 1, 2, and the sampled word
# checks for k = 1, 2 (200 draws, seed 0)
RING_FAULTS = {
    ("M2(GF(2))", 1, 1): (
        {"ring": "M2(GF(2))", "ideal": [0, 2, 5, 6], "r": 1, "s": 1,
         "lhs": "14/3", "rhs": "38/9"},
        {"ring": "M2(GF(2))", "k": 1, "g": [1], "h": [1], "s": 0,
         "lhs": "121/6", "similar": True},
        {"ring": "M2(GF(2))", "k": 2, "g": [0, 1], "h": [0, 1], "s": 0,
         "lhs": "968/3", "similar": True},
        {"g": [13], "h": [10], "s": 8, "lhs": "37/2", "rhs": "16"},
        {"g": [13, 10], "h": [8, 4], "s": 4, "lhs": "289", "rhs": "256"}),
    ("prod(Z4,Z2)", 4, 1): (
        {"ring": "prod(Z4,Z2)", "ideal": [0, 2], "r": 1, "s": 4,
         "lhs": "0", "rhs": "-1"},
        {"ring": "prod(Z4,Z2)", "k": 1, "g": [1], "h": [1], "s": 0,
         "lhs": "57/4", "similar": True},
        {"ring": "prod(Z4,Z2)", "k": 2, "g": [0, 1], "h": [0, 1], "s": 0,
         "lhs": "114", "similar": True},
        {"g": [6], "h": [5], "s": 4, "lhs": "41/4", "rhs": "8"},
        {"g": [6, 5], "h": [4, 2], "s": 2, "lhs": "80", "rhs": "64"}),
    ("Z6", 2, 1): (
        {"ring": "Z6", "ideal": [0, 3], "r": 1, "s": 1, "lhs": "4",
         "rhs": "3"},
        {"ring": "Z6", "k": 1, "g": [1], "h": [1], "s": 0, "lhs": "25/2",
         "similar": True},
        {"ring": "Z6", "k": 2, "g": [0, 1], "h": [0, 1], "s": 0,
         "lhs": "75", "similar": True},
        {"g": [5], "h": [3], "s": 3, "lhs": "8", "rhs": "6"},
        {"g": [5, 3], "h": [3, 1], "s": 1, "lhs": "48", "rhs": "36"}),
}


def witness_of(check):
    with pytest.raises(IdentityCheckError) as info:
        check()
    return str(info.value), info.value.witness


@pytest.mark.parametrize("spec,x,delta", sorted(RING_FAULTS))
def test_ring_sweeps_fail_with_the_recorded_witness(spec, x, delta):
    ring = ring_from_text(spec)
    table = bump_unit_orbit(ring, weight_table(ring), x, delta)
    ideal, word1, word2, sampled1, sampled2 = RING_FAULTS[spec, x, delta]
    assert witness_of(lambda: check_correlation_ideal(ring, table)) == (
        "ideal correlation identity fails", ideal)
    for k, word, sampled in ((1, word1, sampled1), (2, word2, sampled2)):
        assert witness_of(
            lambda: check_correlation_vectors(ring, k, table)) == (
            "word correlation identity fails", word)
        assert witness_of(
            lambda: _sampled_correlation_vectors(ring, k, table, 200, 0)) \
            == ("word correlation identity fails", sampled)


# ------------------------------------------------ reduced ideal sweeps

# rings on which the orbit- and coset-reduced sweeps must agree with the
# unreduced oracles; op(R) is the opposite ring of R
REDUCED_RINGS = ["Z4", "Z6", "Z12", "Z36", "GF(4)", "M2(GF(2))",
                 "M2(GF(3))", "M2(GF(4))", "prod(Z4,Z2)", "op(M2(GF(3)))",
                 "GF(2)[x,y]/(x^2,y^2)"]
REDUCED_ORDERS = dict(zip(REDUCED_RINGS,
                          [4, 6, 12, 36, 4, 16, 81, 256, 8, 81, 16]))


def group_algebra_c2_c2():
    """GF(2)[x,y]/(x^2,y^2), the group algebra of C2 x C2: a local
    Frobenius ring whose maximal ideal (x, y) is not principal, so the
    ideal closure must add it.  a0 + a1 x + a2 y + a3 xy has index
    a0 + 2 a1 + 4 a2 + 8 a3, and chi(a) = (-1)^a3."""
    a = (np.arange(16)[:, None] >> np.arange(4)) & 1
    i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    p, q = a[i], a[j]
    product = np.stack([
        p[..., 0] * q[..., 0],
        p[..., 0] * q[..., 1] + p[..., 1] * q[..., 0],
        p[..., 0] * q[..., 2] + p[..., 2] * q[..., 0],
        p[..., 0] * q[..., 3] + p[..., 3] * q[..., 0]
        + p[..., 1] * q[..., 2] + p[..., 2] * q[..., 1]], axis=-1) % 2
    return FiniteRing(SimpleNamespace(text=lambda: "GF(2)[x,y]/(x^2,y^2)"),
                      [str(x) for x in range(16)], i ^ j,
                      product @ (1 << np.arange(4)), a[:, 3], 2)


def reduced_ring(spec):
    if spec == "GF(2)[x,y]/(x^2,y^2)":
        return group_algebra_c2_c2()
    if spec.startswith("op("):
        return opposite_ring(ring_from_text(spec[3:-1]))
    return ring_from_text(spec)


def outcome(check):
    try:
        check()
    except IdentityCheckError as exc:
        return str(exc), exc.witness
    return "pass"


def unit_invariant_tables(ring):
    """The weight table, and copies bumped on the unit orbit of 1 and
    on the two-sided unit orbit of the least nonzero non-unit."""
    table = weight_table(ring)
    tables = [table, bump_unit_orbit(ring, table, 1, 1)]
    nonunits = sorted(set(range(1, ring.order)) - set(ring.units))
    if nonunits:
        tables.append(bump_unit_orbit(ring, table, nonunits[0], -1))
    return tables


@pytest.mark.parametrize("bumped", [False, True])
@pytest.mark.parametrize("spec", ["M2(GF(3))", "op(M2(GF(3)))"])
def test_ideal_correlation_takes_one_r_per_right_unit_orbit(spec, bumped,
                                                           monkeypatch):
    # the faults above all surface at r = 0 or 1, so the r swept are
    # pinned here, with a spy that passes every r so the whole sweep is
    # seen: the least member of each orbit {ru}, per ideal; but every r
    # on a table bumped on one element, which is not right-unit
    # invariant, so that the orbit reduction does not hold
    ring = reduced_ring(spec)
    table = weight_table(ring)
    if bumped:
        table = table.with_bumped_numerator(ring.order - 1, 1)
    visited = []

    def spy(ring, table, ideal, rs, fixing):
        visited.extend(rs.tolist())
        agree = np.zeros((len(rs), ring.order), dtype=np.int64)
        return agree, agree, 1

    monkeypatch.setattr(homweight, "ideal_correlation", spy)
    check_correlation_ideal(ring, table)
    units = sorted(ring.units)
    minima = sorted({min(int(ring.mul_table[r, u]) for u in units)
                     for r in range(ring.order)})
    swept = list(range(ring.order)) if bumped else minima
    assert visited == swept * len(all_one_sided_ideals(ring, "left"))


@pytest.mark.parametrize("bumped", [False, True])
@pytest.mark.parametrize("spec,k", [("M2(GF(3))", 1), ("op(M2(GF(3)))", 1),
                                    ("M2(GF(2))", 2), ("Z12", 2)])
def test_word_correlation_takes_one_column_per_right_unit_orbit(
        spec, k, bumped, monkeypatch):
    # the columns g and h swept: the least member of each orbit {vu} of
    # nonzero words; but every nonzero word on a table bumped on one
    # element, which is not right-unit invariant
    ring = reduced_ring(spec)
    table = weight_table(ring)
    if bumped:
        table = table.with_bumped_numerator(ring.order - 1, 1)
    swept = []

    def spy(ring, matrix, coefficients):
        swept.append(np.asarray(matrix).T.tolist())
        return combine_rows(ring, matrix, coefficients)

    monkeypatch.setattr(homweight, "combine_rows", spy)
    outcome(lambda: check_correlation_vectors(ring, k, table))

    def key(v):
        return sum(int(c) * ring.order ** (k - 1 - i) for i, c in enumerate(v))

    words = [list(v) for v in product(range(ring.order), repeat=k)
             if any(v)]
    least = [w for w in words if key(w) == min(
        key([ring.mul_table[c, u] for c in w]) for u in ring.units)]
    assert swept == [words if bumped else least]


@pytest.mark.parametrize("spec,k", [
    (spec, k) for spec in REDUCED_RINGS for k in (1, 2)
    if REDUCED_ORDERS[spec] ** k <= 256])
def test_word_correlation_matches_every_pair_oracle(spec, k):
    ring = reduced_ring(spec)
    tables = bumped_tables(ring)
    outcomes = [outcome(lambda: check_correlation_vectors(ring, k, table))
                for table in tables]
    assert outcomes == [outcome(lambda: check_correlation_vectors_every_pair(
        ring, k, table)) for table in tables]
    assert outcomes[0] == "pass" and "pass" not in outcomes[1:]


@pytest.mark.parametrize("spec,k", [
    ("M2(GF(3))", 1), ("op(M2(GF(3)))", 1), ("Z36", 1), ("M2(GF(2))", 2),
    ("Z12", 2), ("prod(Z4,Z2)", 2), ("GF(2)[x,y]/(x^2,y^2)", 2)])
def test_word_sweep_reports_the_unreduced_first_failure(spec, k,
                                                        monkeypatch):
    # the identity is made to fail on a sparse pseudo-random set of
    # triples (g, h, s): where a hash of the weights w(x.h + s) over all
    # x, plus one of w(x.g) or not, hits a residue modulo a prime and
    # then modulo P^2 or P, P the number of points.  The set is closed
    # under (gu, hv, sv), as the failures on a right-unit invariant
    # table are, but need not start at s = 0 or at the first g and h
    ring = reduced_ring(spec)
    table = weight_table(ring)
    points = len(np.unique(point_ids(
        ring, enumerate_vectors(ring.order, k)[1:])[0]))
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, 1 << 20, size=(2, ring.order ** k))
    outcomes = []
    for by_g, residue in product((1, 0), range(8)):
        def fail_on_hash(ring, table, wg, xh, s, same, m):
            lhs, rhs, den = correlation_vectors(ring, table, wg, xh, s, same,
                                                m)
            ws = table.numerators[ring.add_table[xh, s]]
            hashed = by_g * (wg.astype(np.int64) @ a)[:, None] + ws.T @ b
            at = hashed % 1000003 % points ** (1 + by_g) == residue
            return lhs, rhs + at, den

        monkeypatch.setattr(homweight, "correlation_vectors", fail_on_hash)
        monkeypatch.setattr(identity_oracle, "correlation_vectors",
                            fail_on_hash)
        got = outcome(lambda: check_correlation_vectors(ring, k, table))
        assert got == outcome(lambda: check_correlation_vectors_every_pair(
            ring, k, table))
        outcomes.append(got)
    # the first failures fall at more than one shift
    assert len({o[1]["s"] for o in outcomes if o != "pass"}) > 1


@pytest.mark.parametrize("spec", REDUCED_RINGS)
def test_orbit_count_counts_the_points(spec):
    ring = reduced_ring(spec)
    for k in (1, 2):
        if ring.order ** k <= 6561:
            pids, _ = point_ids(ring, enumerate_vectors(ring.order, k))
            assert _orbit_count(ring, ring.units_array, k) \
                == len(np.unique(pids))
        assert _orbit_count(ring, np.array([ring.one]), k) == ring.order ** k


def test_fixing_unit_count_is_taken_once_per_ideal(monkeypatch):
    # with blocks of one r each, every ideal spans several blocks of r;
    # the count of units fixing the ideal is still taken once per ideal
    ring = ring_from_text("M2(GF(3))")
    counted = []

    def spy(ring, ideal):
        counted.append(ideal.tolist())
        return _fixing_unit_count(ring, ideal)

    monkeypatch.setattr(homweight, "BLOCK_ENTRIES", 1)
    monkeypatch.setattr(homweight, "_fixing_unit_count", spy)
    check_correlation_ideal(ring)
    assert counted == [i.tolist() for i in all_one_sided_ideals(ring, "left")]


@pytest.mark.parametrize("spec", REDUCED_RINGS)
def test_ideal_enumeration_matches_every_element_oracle(spec):
    ring = reduced_ring(spec)
    assert ring.order == REDUCED_ORDERS[spec]
    for side in ("left", "right"):
        got = all_one_sided_ideals(ring, side)
        want = all_one_sided_ideals_every_element(ring, side)
        assert [(i.dtype, i.tolist()) for i in got] \
            == [(i.dtype, i.tolist()) for i in want]


def test_closure_adds_the_non_principal_ideal():
    ring = group_algebra_c2_c2()
    ideals = [i.tolist() for i in all_one_sided_ideals(ring)]
    principal = [np.unique(ring.mul_table[:, x]).tolist()
                 for x in range(ring.order)]
    maximal = [x for x in range(16) if x % 2 == 0]
    assert maximal in ideals and maximal not in principal
    assert [len(i) for i in ideals] == [2, 4, 4, 4, 8, 16]


def test_m2_gf8_has_ten_nonzero_ideals_per_side():
    ring = ring_from_text("M2(GF(8))")
    for side in ("left", "right"):
        sizes = [len(i) for i in all_one_sided_ideals(ring, side)]
        assert sizes == [64] * 9 + [4096]


def bumped_tables(ring):
    """unit_invariant_tables, then copies bumped on the single elements
    1 and order - 1: tables that are not unit-invariant."""
    tables = unit_invariant_tables(ring)
    return tables + [tables[0].with_bumped_numerator(x, 1)
                     for x in (1, ring.order - 1)]


@pytest.mark.parametrize("spec", REDUCED_RINGS)
def test_coset_sums_match_every_shift_oracle(spec):
    ring = reduced_ring(spec)
    tables = bumped_tables(ring)
    outcomes = [outcome(lambda: check_coset_sums(ring, table))
                for table in tables]
    assert outcomes == [outcome(lambda: check_coset_sums_every_shift(
        ring, table)) for table in tables]
    assert outcomes[0] == "pass" and "pass" not in outcomes[1:]


@pytest.mark.parametrize("spec", REDUCED_RINGS)
def test_ideal_correlation_matches_every_r_oracle(spec):
    ring = reduced_ring(spec)
    tables = bumped_tables(ring)
    outcomes = [outcome(lambda: check_correlation_ideal(ring, table))
                for table in tables]
    assert outcomes == [outcome(lambda: check_correlation_ideal_every_r(
        ring, table)) for table in tables]
    assert outcomes[0] == "pass" and "pass" not in outcomes[1:]


GF3_PROFILE = ("two-weight frequencies disagree with their closed forms",
               {"b1": 4, "b1_closed": "7", "b2": 4, "b2_closed": "1"})
Z4_PROFILE = ("two-weight frequencies disagree with their closed forms",
              {"b1": 2, "b1_closed": "6", "b2": 1, "b2_closed": "-3"})

# (ring, generator, element whose unit orbit is bumped, delta) -> the
# failing check and witness of the identity sweep over all of R^n and
# over 200 shifts (seed 0): as is, with the correlation row held, and
# with the correlation and smaller-class rows held (see hold_rows).  Then
# the full sweep's witness with every shifted sum held, so that it
# reaches the per-coordinate checks: as is, with the correlation row
# held, and with both rows held.  A corrupted profile fails first.  The
# witnesses reached only with rows held were recorded with the sweep;
# the others match the per-identity sweeps it replaced.
CODE_FAULTS = {
    ("GF(3)", ((1, 0), (0, 1)), 1, 1): ((GF3_PROFILE,) * 2,) * 3
    + (GF3_PROFILE,) * 3,
    ("Z4", ((1, 2, 3),), 2, 1): ((Z4_PROFILE,) * 2,) * 3
    + (Z4_PROFILE,) * 3,
    # the bumped orbit is the zero-weight unit (1,1): the profile holds
    # and the correlation, class and per-coordinate sums fail
    ("prod(Z2,Z2)", ((0, 0), (2, 3)), 1, -1): (
        (("codeword correlation identity fails",
          {"ring": "prod(Z2,Z2)", "d": [0, 1], "lhs": "22"}),
         ("codeword correlation identity fails",
          {"ring": "prod(Z2,Z2)", "d": [3, 2], "lhs": "-4"})),
        (("smaller-class shifted weight sum fails",
          {"ring": "prod(Z2,Z2)", "d": [0, 1], "lhs": "3"}),
         ("smaller-class shifted weight sum fails",
          {"ring": "prod(Z2,Z2)", "d": [3, 2], "lhs": "2"})),
        (("larger-class shifted weight sum fails",
          {"ring": "prod(Z2,Z2)", "d": [0, 1], "lhs": "4"}),
         ("larger-class shifted weight sum fails",
          {"ring": "prod(Z2,Z2)", "d": [3, 2], "lhs": "-2"})),
        ("per-coordinate correlation identity fails",
         {"ring": "prod(Z2,Z2)", "j": 0, "dj": 1}),
        ("per-coordinate class sum identity fails",
         {"ring": "prod(Z2,Z2)", "j": 0, "dj": 1}),
        ("smaller-class column sum is not b1 w1 / n",
         {"ring": "prod(Z2,Z2)", "j": 0})),
}


def hold_rows(monkeypatch, held):
    """Zero the given rows of codes._identity_sides: both sides of those
    identities are then 0 at every shift and coordinate."""
    sides = codes._identity_sides

    def zeroed(code):
        rows, const, slope, dens = sides(code)
        for i in held:
            rows[i], const[i], slope[i] = 0, 0, 0
        return rows, const, slope, dens
    monkeypatch.setattr(codes, "_identity_sides", zeroed)


def hold_shifted_sums(monkeypatch):
    """Make every shifted sum's right side equal its left side."""
    sums = codes.shifted_weight_sums

    def held(code, ds):
        lhs, _, dens = sums(code, ds)
        return lhs, lhs, dens
    monkeypatch.setattr(codes, "shifted_weight_sums", held)


@pytest.mark.parametrize("key", sorted(CODE_FAULTS), ids=str)
def test_code_sweeps_fail_with_the_recorded_witness(key, monkeypatch):
    spec, rows, x, delta = key
    ring = ring_from_text(spec)
    code = build_code(ring, np.array(rows, dtype=np.int32))
    table = bump_unit_orbit(ring, weight_table(ring), x, delta)
    code = LinearCode(ring, code.generator, code.words, code.messages,
                      table)
    sweeps = (lambda: sweep_code_identities(code, full=True),
              lambda: sweep_code_identities(code, sample=200))
    oracles = (code_correlation_lhs,
               lambda code, d: class_coset_sum_lhs(code, code.profile.w1, d),
               lambda code, d: class_coset_sum_lhs(code, code.profile.w2, d))
    for held, expected, oracle in zip(((), (0,), (0, 1)),
                                      CODE_FAULTS[key][:3], oracles):
        with monkeypatch.context() as patch:
            hold_rows(patch, held)
            assert [witness_of(sweep) for sweep in sweeps] == list(expected)
        for _, witness in expected:
            if "lhs" in witness:
                assert Fraction(witness["lhs"]) == oracle(code, witness["d"])
    for held, expected in zip(((), (0,), (0, 1)), CODE_FAULTS[key][3:]):
        with monkeypatch.context() as patch:
            hold_shifted_sums(patch)
            hold_rows(patch, held)
            assert witness_of(sweeps[0]) == expected
    # one shift and one coordinate per batch: the first witness does not
    # depend on batching
    monkeypatch.setattr(codes, "_BATCH_ENTRIES", 1)
    assert [witness_of(sweep) for sweep in sweeps] \
        == list(CODE_FAULTS[key][0])
