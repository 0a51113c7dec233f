"""The batched identity evaluators against the brute-force oracle in
identity_oracle.py, the orbit- and coset-reduced ideal sweeps against
the unreduced ones there, the derivation of the word correlation
identity against its every-pair sweep and case by case, and the checks
on corrupted weight tables.

Most corrupted tables move the weight of a whole unit orbit, so they
pass the unit-invariance check and reach the identity sweeps.  Each
check must then fail with its recorded first witness.
"""

from fractions import Fraction
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
    sweep_code_identities,
    two_weight_profile,
)
from frobcode.errors import IdentityCheckError
from frobcode.homweight import (
    _fixing_unit_count,
    _sampled_correlation_vectors,
    all_one_sided_ideals,
    check_correlation_ideal,
    check_correlation_vectors,
    check_coset_sums,
    correlation_vectors_lhs,
    ideal_correlation,
    identity_suite,
    weight_table,
)
from frobcode.rings import FiniteRing, opposite_ring, ring_from_text
from frobcode.search import generator_for_record, search_modular_codes
from frobcode.spans import combine_rows, enumerate_vectors, point_ids
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
    correlation_vectors,
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


def class_weights(code):
    """The weights of the class sums of _identity_sides: none, or for a
    two-weight code the smaller and the larger."""
    profile = two_weight_profile(code)
    return () if profile is None else (profile.w1, profile.w2)


@SETTINGS
@given(st.data())
def test_code_identities_match_oracle(data):
    code = data.draw(st.sampled_from(
        modular_codes(data.draw(st.sampled_from(RINGS)))))
    j = data.draw(st.integers(0, code.n - 1))
    dj = data.draw(st.integers(0, code.ring.order - 1))

    # one row per identity: the correlation, then for a two-weight code
    # the smaller and the larger class
    lhs, rhs, dens = coordinate_weight_sums(code)
    expected = [coordinate_correlation_lhs(code, j, dj)] + [
        coordinate_class_sum_lhs(code, weight, j, dj)
        for weight in class_weights(code)]
    assert [Fraction(int(v), den) for v, den in zip(lhs[:, j, dj], dens)] \
        == [Fraction(int(v), den) for v, den in zip(rhs[:, j, dj], dens)] \
        == expected


@SETTINGS
@given(st.data())
def test_coordinate_sums_add_up_to_the_shift_identities(data):
    # w(c + d) = sum_j w(c_j + d_j): the coordinate sides at d_j, summed
    # over j, are both sides of each shift identity at d
    code = data.draw(st.sampled_from(
        modular_codes(data.draw(st.sampled_from(RINGS)))))
    d = data.draw(st.lists(st.integers(0, code.ring.order - 1),
                           min_size=code.n, max_size=code.n))
    lhs, rhs, dens = coordinate_weight_sums(code)
    at = np.arange(code.n), d
    expected = [code_correlation_lhs(code, d)] + [
        class_coset_sum_lhs(code, weight, d)
        for weight in class_weights(code)]
    assert [Fraction(int(v), den)
            for v, den in zip(lhs[:, at[0], at[1]].sum(axis=1), dens)] \
        == [Fraction(int(v), den)
            for v, den in zip(rhs[:, at[0], at[1]].sum(axis=1), dens)] \
        == expected


def test_word_evaluator_on_a_corrupted_table_matches_oracle():
    ring = ring_from_text("M2(GF(2))")
    table = bump_unit_orbit(ring, weight_table(ring), 1, 1)
    for g, h, s in (([13], [10], 8), ([13, 10], [8, 4], 4),
                    ([1, 0], [1, 0], 0)):
        lhs, _ = word_pair(ring, table, g, h, s)
        assert lhs == word_correlation_lhs(ring, table, g, h, s)


# rings of order at most 9, on which the sampled kernel is checked
# against the brute-force sum over R^k for k up to 3
KERNEL_RINGS = ["Z4", "Z6", "Z8", "Z9", "GF(4)", "GF(8)", "GF(9)",
                "prod(Z2,Z2)", "prod(Z4,Z2)"]


def weighted_addition_table(ring, table, k):
    """The weighted table correlation_vectors_lhs reads at k >= 2."""
    return table.numerators[ring.add_table].ravel() if k > 1 else None


@SETTINGS
@given(st.data())
def test_sampled_kernel_matches_brute_force(data):
    ring = ring_from_text(data.draw(st.sampled_from(KERNEL_RINGS)))
    table = weight_table(ring)
    if data.draw(st.booleans()):
        table = bump_unit_orbit(ring, table,
                                data.draw(st.integers(0, ring.order - 1)),
                                data.draw(st.integers(-2, 2)))
    k = data.draw(st.integers(1, 3))
    draws = data.draw(st.integers(1, 3))
    element = st.integers(0, ring.order - 1)
    word = st.lists(element, min_size=k, max_size=k)
    g = np.array([data.draw(word) for _ in range(draws)], dtype=np.int16)
    h = np.array([data.draw(word) for _ in range(draws)], dtype=np.int16)
    s = np.array([data.draw(element) for _ in range(draws)],
                 dtype=np.int16)
    work = np.empty((3, draws * ring.order ** k), dtype=np.int64)
    sums = correlation_vectors_lhs(
        ring, table.numerators, weighted_addition_table(ring, table, k),
        g, h, s, work)
    D = table.denominator
    assert [Fraction(int(v), D * D) for v in sums] == [
        word_correlation_lhs(ring, table, gi.tolist(), hi.tolist(), int(si))
        for gi, hi, si in zip(g, h, s)]


def test_sampled_draws_match_the_word_stack_evaluator(monkeypatch):
    # every draw verify 'M2(GF(4))' --cap 65535 --seed 1 takes at k = 2,
    # summed on the weight table and on a bumped copy, on which the sum
    # depends on s even when g and h lie on different points
    ring = ring_from_text("M2(GF(4))")
    table = weight_table(ring)
    blocks = []

    def spy(ring, num, weighted, g, h, s, work):
        blocks.append((g, h, s))
        return correlation_vectors_lhs(ring, num, weighted, g, h, s, work)

    monkeypatch.setattr(homweight, "correlation_vectors_lhs", spy)
    homweight._sampled_correlation_vectors(ring, 2, table, 200, 1)
    assert sum(len(s) for _, _, s in blocks) == 200
    vecs = enumerate_vectors(ring.order, 2)
    for table in (table, bump_unit_orbit(ring, table, 1, 1)):
        weighted = weighted_addition_table(ring, table, 2)
        for g, h, s in blocks:
            work = np.empty((3, len(s) * len(vecs)), dtype=np.int64)
            sums = correlation_vectors_lhs(ring, table.numerators,
                                           weighted, g, h, s, work)
            xg = combine_rows(ring, g.T, vecs)
            xh = combine_rows(ring, h.T, vecs)
            lhs, _, _ = correlation_vectors(
                ring, table, table.numerators[xg.T][:, None, :],
                xh.T[:, :, None], s[:, None, None], False,
                np.ones((len(s), 1, 1), dtype=np.int64))
            assert lhs.ravel().tolist() == sums.tolist()


# ------------------------------------------------------------- faults

COSET_SUM = "coset sum over a left ideal misses the ideal size"
M2_COSET = {"ring": "M2(GF(2))", "side": "left", "ideal": [0, 2, 5, 6],
            "shift": 1, "sum_numerator": 26, "expected_numerator": 24}
Z6_COSET = {"ring": "Z6", "side": "left", "ideal": [0, 3], "shift": 1,
            "sum_numerator": 5, "expected_numerator": 4}

# (ring, element whose unit orbit is bumped, delta) -> the check at
# which identity_suite stops, with its message and witness; the
# witnesses of the ideal sweep and of check_correlation_vectors; and
# those of the sampled word checks for k = 1, 2 (200 draws, seed 0)
RING_FAULTS = {
    ("M2(GF(2))", 1, 1): (
        ("coset-sums", COSET_SUM, M2_COSET),
        {"ring": "M2(GF(2))", "ideal": [0, 2, 5, 6], "r": 1, "s": 1,
         "lhs": "14/3", "rhs": "38/9"},
        (COSET_SUM, M2_COSET),
        {"g": [13], "h": [10], "s": 8, "lhs": "37/2", "rhs": "16"},
        {"g": [13, 10], "h": [8, 4], "s": 4, "lhs": "289", "rhs": "256"}),
    # the bumped orbit is {(2,0)}, so a shift by the zero-weight
    # element (2,1) moves the weight, and the suite stops at the zero set
    ("prod(Z4,Z2)", 4, 1): (
        ("zero-set", "weight not invariant under shift by 5",
         {"ring": "prod(Z4,Z2)", "shift": 5, "element": 2}),
        {"ring": "prod(Z4,Z2)", "ideal": [0, 2], "r": 1, "s": 4,
         "lhs": "0", "rhs": "-1"},
        (COSET_SUM, {"ring": "prod(Z4,Z2)", "side": "left",
                     "ideal": [0, 2], "shift": 4, "sum_numerator": 5,
                     "expected_numerator": 4}),
        {"g": [6], "h": [5], "s": 4, "lhs": "41/4", "rhs": "8"},
        {"g": [6, 5], "h": [4, 2], "s": 2, "lhs": "80", "rhs": "64"}),
    ("Z6", 2, 1): (
        ("coset-sums", COSET_SUM, Z6_COSET),
        {"ring": "Z6", "ideal": [0, 3], "r": 1, "s": 1, "lhs": "4",
         "rhs": "3"},
        (COSET_SUM, Z6_COSET),
        {"g": [5], "h": [3], "s": 3, "lhs": "8", "rhs": "6"},
        {"g": [5, 3], "h": [3, 1], "s": 1, "lhs": "48", "rhs": "36"}),
}


def witness_of(check):
    with pytest.raises(IdentityCheckError) as info:
        check()
    return str(info.value), info.value.witness


def suite_stop(ring, table):
    """The check at which identity_suite stops, its message and its
    witness."""
    names = [name for name, _ in homweight.IDENTITY_CHECKS]
    passed = []
    with pytest.raises(IdentityCheckError) as info:
        for name, _ in identity_suite(ring, table):
            passed.append(name)
    return names[len(passed)], str(info.value), info.value.witness


@pytest.mark.parametrize("spec,x,delta", sorted(RING_FAULTS))
def test_ring_sweeps_fail_with_the_recorded_witness(spec, x, delta):
    ring = ring_from_text(spec)
    table = bump_unit_orbit(ring, weight_table(ring), x, delta)
    stop, ideal, word, sampled1, sampled2 = RING_FAULTS[spec, x, delta]
    assert suite_stop(ring, table) == stop
    assert witness_of(lambda: check_correlation_ideal(ring, table)) == (
        "ideal correlation identity fails", ideal)
    assert witness_of(lambda: check_correlation_vectors(ring, table)) == word
    for k, sampled in ((1, sampled1), (2, sampled2)):
        assert witness_of(
            lambda: _sampled_correlation_vectors(ring, k, table, 200, 0)) \
            == ("word correlation identity fails", sampled)


@pytest.mark.parametrize("spec,x,delta", sorted(RING_FAULTS))
def test_sampled_witness_holds_with_one_draw_per_block(spec, x, delta,
                                                      monkeypatch):
    # each draw's words over R^k are formed and summed in a block of
    # their own
    monkeypatch.setattr(homweight, "BLOCK_ENTRIES", 1)
    ring = ring_from_text(spec)
    table = bump_unit_orbit(ring, weight_table(ring), x, delta)
    for k, sampled in enumerate(RING_FAULTS[spec, x, delta][3:], 1):
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


@pytest.mark.parametrize("spec,k", [
    (spec, k) for spec in REDUCED_RINGS for k in (1, 2)
    if REDUCED_ORDERS[spec] ** k <= 256])
def test_word_correlation_matches_every_pair_oracle(spec, k):
    # the derivation passes the weight table, as every pair (g, h) of
    # R^k does, and fails each corrupted table, as some pair does
    ring = reduced_ring(spec)
    tables = bumped_tables(ring)
    for check in (lambda table: check_correlation_vectors(ring, table),
                  lambda table: check_correlation_vectors_every_pair(
                      ring, k, table)):
        outcomes = [outcome(lambda: check(table)) for table in tables]
        assert outcomes[0] == "pass" and "pass" not in outcomes[1:]


def similar_units(ring, g, h):
    """The units u with h = g u."""
    return [u for u in ring.units
            if all(ring.mul_table[a, u] == b for a, b in zip(g, h))]


@pytest.mark.parametrize("spec,k", [
    (spec, k) for spec in REDUCED_RINGS for k in (1, 2, 3)
    if k < 3 or REDUCED_ORDERS[spec] <= 8])
def test_word_correlation_follows_from_its_cases(spec, k):
    # the three cases of check_correlation_vectors, against the
    # brute-force left side at seeded (g, h, s): h random, h = g u for a
    # unit u, and h = g r for any r.  With A = {x.g : x.h = 0} and
    # B = {x.h : x.g = 0}, A or B nonzero gives |R|^k and g !~ h; A = B
    # = 0 gives h = g u and the ideal correlation identity at r = u
    ring = reduced_ring(spec)
    table = weight_table(ring)
    order, units = ring.order, sorted(ring.units)
    total = order ** k
    vecs = enumerate_vectors(order, k)
    rng = np.random.default_rng(k)
    isomorphic = 0
    for draw in range(6 if total <= 6561 else 2):
        g = vecs[rng.integers(1, total)]
        h = vecs[rng.integers(1, total)]
        if draw % 3:
            r = units[rng.integers(len(units))] if draw % 3 == 1 \
                else rng.integers(order)
            h = ring.mul_table[g, r]
            if not h.any():
                continue
        s = int(rng.integers(order))
        xg = combine_rows(ring, g[:, None], vecs)[:, 0]
        xh = combine_rows(ring, h[:, None], vecs)[:, 0]
        lhs = word_correlation_lhs(ring, table, g.tolist(), h.tolist(), s)
        if xg[xh == 0].any() or xh[xg == 0].any():
            assert lhs == total
            assert not similar_units(ring, g, h)
            continue
        isomorphic += 1
        u = similar_units(ring, g, h)[0]
        ideal = np.unique(xg)
        assert lhs == Fraction(total, len(ideal)) * ideal_correlation_lhs(
            ring, table, ideal, u, s)
        _, rhs, den = ideal_correlation(ring, table, ideal, np.array([u]),
                                        _fixing_unit_count(ring, ideal))
        assert lhs == Fraction(total, len(ideal)) * Fraction(
            int(rhs[0, s]), den)
    assert isomorphic


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
# failing check and witness of the identity sweep: as is, with the
# correlation row held, with the correlation and smaller-class rows
# held, and with all three rows held (see hold_rows).  A corrupted
# profile fails first.  All but the third match the witnesses of the
# per-coordinate checks of the shift sweep this sweep replaced.
CODE_FAULTS = {
    ("GF(3)", ((1, 0), (0, 1)), 1, 1): (GF3_PROFILE,) * 4,
    ("Z4", ((1, 2, 3),), 2, 1): (Z4_PROFILE,) * 4,
    # the bumped orbit is the zero-weight unit (1,1): the profile holds
    # and the correlation, class and per-coordinate sums fail
    ("prod(Z2,Z2)", ((0, 0), (2, 3)), 1, -1): (
        ("per-coordinate correlation identity fails",
         {"ring": "prod(Z2,Z2)", "j": 0, "dj": 1}),
        ("per-coordinate class sum identity fails",
         {"ring": "prod(Z2,Z2)", "j": 0, "dj": 1}),
        ("per-coordinate larger-class sum identity fails",
         {"ring": "prod(Z2,Z2)", "j": 0, "dj": 1}),
        ("smaller-class column sum is not b1 w1 / n",
         {"ring": "prod(Z2,Z2)", "j": 0})),
}


def hold_rows(monkeypatch, held):
    """Zero the given rows of codes._identity_sides: both sides of those
    identities are then 0 at every coordinate."""
    sides = codes._identity_sides

    def zeroed(code):
        rows, const, slope, dens = sides(code)
        for i in held:
            rows[i], const[i], slope[i] = 0, 0, 0
        return rows, const, slope, dens
    monkeypatch.setattr(codes, "_identity_sides", zeroed)


@pytest.mark.parametrize("key", sorted(CODE_FAULTS), ids=str)
def test_code_sweeps_fail_with_the_recorded_witness(key, monkeypatch):
    spec, rows, x, delta = key
    ring = ring_from_text(spec)
    code = build_code(ring, np.array(rows, dtype=np.int32))
    table = bump_unit_orbit(ring, weight_table(ring), x, delta)
    code = LinearCode(ring, code.generator, table)
    oracles = (coordinate_correlation_lhs,
               lambda code, j, dj: coordinate_class_sum_lhs(
                   code, code.profile.w1, j, dj),
               lambda code, j, dj: coordinate_class_sum_lhs(
                   code, code.profile.w2, j, dj))
    for held, expected in zip(((), (0,), (0, 1), (0, 1, 2)),
                              CODE_FAULTS[key]):
        with monkeypatch.context() as patch:
            hold_rows(patch, held)
            assert witness_of(lambda: sweep_code_identities(code)) \
                == expected
        _, witness = expected
        if "dj" in witness:
            # the failing side is the true coordinate sum
            row, j, dj = len(held), witness["j"], witness["dj"]
            lhs, _, dens = coordinate_weight_sums(code)
            assert Fraction(int(lhs[row, j, dj]), dens[row]) \
                == oracles[row](code, j, dj)
    # one coordinate per block: the first witness does not depend on the
    # blocks
    monkeypatch.setattr(codes, "BLOCK_ENTRIES", 1)
    assert witness_of(lambda: sweep_code_identities(code)) \
        == CODE_FAULTS[key][0]
