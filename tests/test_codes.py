"""Linear code enumeration, modularity, profiles, and the lemma-layer
identities, with hand-computed frozen examples."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobcode
from frobcode.codes import (
    LinearCode,
    build_code,
    coordinate_weight_sums,
    format_code_file,
    modular_index,
    parse_code_file,
    support_with_zero,
    sweep_code_identities,
    two_weight_profile,
)
from frobcode.errors import (
    IdentityCheckError,
    PreconditionError,
    SpecParseError,
    ZeroColumnError,
)
from frobcode.homweight import weight_table
from frobcode.rings import ring_from_text
from frobcode.spans import encode_vectors, enumerate_vectors, message_words
from identity_oracle import bump_unit_orbit
from search_oracle import one_weight_characterization
from span_oracle import code_words


def make(text, rows):
    ring = ring_from_text(text)
    return ring, build_code(ring, np.array(rows, dtype=np.int32))


# ------------------------------------------------------- construction


def test_f3_identity_frozen_profile():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    assert code.size == 9
    assert code.b0 == 1
    assert code.weight_distribution == {
        Fraction(0): 1, Fraction(3, 2): 4, Fraction(3): 4}
    assert modular_index(code) == Fraction(1, 2)
    profile = two_weight_profile(code)
    assert (profile.w1, profile.w2) == (Fraction(3, 2), Fraction(3))
    assert (profile.b0, profile.b1, profile.b2) == (1, 4, 4)
    assert profile.index == Fraction(1, 2)
    assert not profile.trivial


def test_gf4_identity_frozen_profile():
    ring, code = make("GF(4)", [[1, 0], [0, 1]])
    profile = two_weight_profile(code)
    assert (profile.w1, profile.w2) == (Fraction(4, 3), Fraction(8, 3))
    assert (profile.b0, profile.b1, profile.b2) == (1, 6, 9)
    assert profile.index == Fraction(1, 3)


def test_z4_trivial_two_weight():
    ring, code = make("Z4", [[1, 3]])
    profile = two_weight_profile(code)
    assert (profile.w1, profile.w2) == (2, 4)
    assert (profile.b0, profile.b1, profile.b2) == (1, 2, 1)
    assert profile.index == 1
    assert profile.trivial


def test_z4_one_weight_code():
    ring, code = make("Z4", [[1, 2, 3]])
    assert code.weight_distribution == {Fraction(0): 1, Fraction(4): 3}
    assert two_weight_profile(code) is None
    is_one, is_mod, is_sub = one_weight_characterization(code)
    assert is_one and is_mod and is_sub
    supp = support_with_zero(code)
    assert len(supp) == 4


def test_one_weight_characterization_negative():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    is_one, is_mod, is_sub = one_weight_characterization(code)
    assert not is_one and is_mod and not is_sub


def test_one_weight_characterization_needs_trivial_zero_class():
    # the unit (1,1) of prod(Z2,Z2) has weight 0: a one-weight code with
    # b0 = 2 whose support with zero is no submodule
    ring, code = make("prod(Z2,Z2)", [[1]])
    assert code.b0 == 2
    with pytest.raises(PreconditionError):
        one_weight_characterization(code)


def test_non_modular_code():
    ring, code = make("Z4", [[1, 1, 1, 2]])
    assert modular_index(code) is None
    profile = two_weight_profile(code)
    assert (profile.w1, profile.w2) == (5, 6)
    assert profile.index is None
    with pytest.raises(PreconditionError, match="^code is not modular$"):
        code.modular_two_weight("identity sweep")
    with pytest.raises(PreconditionError):
        coordinate_weight_sums(code)
    assert sweep_code_identities(code) == []


def zero_words_closed(code):
    """Whether every pairwise sum of zero-weight words is one."""
    words = code_words(code)
    rows = words[code.table.word_numerator(words) == 0]
    sums = code.ring.add_table[rows[:, None, :], rows[None, :, :]]
    keys = encode_vectors(rows, code.ring.order)
    return bool(np.isin(encode_vectors(sums, code.ring.order), keys).all())


@pytest.mark.parametrize("text,rows", [
    ("prod(Z2,Z2)", [[1, 2], [3, 0]]),
    ("prod(Z4,Z2)", [[1, 2, 5]]),
    ("M2(GF(2))", [[13, 10]]),
])
def test_zero_class_check_matches_pairwise_sums(text, rows):
    # with the weight of each unit orbit in turn moved to 0, the grown
    # group fails exactly when some pairwise sum of zero-weight words
    # has nonzero weight
    ring, code = make(text, rows)
    base = weight_table(ring)
    verdicts = set()
    for x in range(1, ring.order):
        table = bump_unit_orbit(ring, base, x, -int(base.numerators[x]))
        bumped = LinearCode(ring, code.generator, table)
        closed = zero_words_closed(bumped)
        verdicts.add(closed)
        if closed:
            bumped.coset_keys
            continue
        with pytest.raises(IdentityCheckError,
                           match="not closed under addition"):
            bumped.coset_keys
    assert verdicts == {True, False}


def brute_coset_keys(code):
    """The least key of x + z over every message z whose word has
    weight zero, per message x."""
    ring = code.ring
    x = enumerate_vectors(ring.order, code.k)
    words = message_words(ring, code.generator, len(x))
    zero = x[code.table.word_numerator(words) == 0]
    members = ring.add_table[x[:, None, :], zero[None, :, :]]
    return encode_vectors(members, ring.order).min(axis=1)


@st.composite
def product_ring_codes(draw):
    """A code over a product of chain rings, where nonzero words can
    have weight zero: k <= 3 rows of n <= 4 entries, no zero column."""
    ring = ring_from_text(draw(st.sampled_from(
        ["prod(Z2,Z2)", "prod(Z4,Z2)", "prod(Z2,Z2,Z2)"])))
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    columns = st.lists(st.integers(0, ring.order - 1), min_size=k,
                       max_size=k).filter(any)
    rows = np.array(draw(st.lists(columns, min_size=n, max_size=n)),
                    dtype=np.int32).T
    return ring, build_code(ring, rows)


@settings(max_examples=150, deadline=None, database=None)
@given(product_ring_codes())
def test_coset_keys_are_least_over_zero_weight_shifts(case):
    ring, code = case
    assert (code.coset_keys == brute_coset_keys(code)).all()


def test_coset_keys_past_int64():
    # 4^32 > 2^62, so the words have no int64 keys, and the cosets are
    # keyed on messages; (1,1) has weight 0, so the all-(1,1) row spans
    # zero-weight words
    ring = ring_from_text("prod(Z2,Z2)")
    rng = np.random.default_rng(0)
    rows = np.stack([np.ones(32, dtype=np.int32),
                     rng.integers(1, 4, size=32, dtype=np.int32)])
    code = build_code(ring, rows)
    assert code.b0 > 1
    assert (code.coset_keys == brute_coset_keys(code)).all()


def test_zero_class_check_memory_is_linear_in_b0():
    # R^2 over eight copies of Z2 has b0 = 2^14 zero-weight words: their
    # b0^2 pairwise sums alone would be a 2 GiB int32 array
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "import numpy as np\n"
        "from frobcode.codes import build_code\n"
        "from frobcode.rings import ring_from_text\n"
        "ring = ring_from_text('prod(' + ','.join(['Z2'] * 8) + ')')\n"
        "print(build_code(ring, np.eye(2, dtype=np.int32)).b0)\n")
    src = os.path.dirname(os.path.dirname(frobcode.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get(
                   "PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "16384\n", "")


def test_zero_column_rejected():
    ring = ring_from_text("Z4")
    with pytest.raises(ZeroColumnError):
        build_code(ring, np.array([[1, 0], [2, 0]], dtype=np.int32))


def test_bad_entries_rejected():
    ring = ring_from_text("Z4")
    with pytest.raises(PreconditionError):
        build_code(ring, np.array([[4, 1]], dtype=np.int32))
    with pytest.raises(PreconditionError):
        build_code(ring, np.zeros((0, 2), dtype=np.int32))


def contains(code, word):
    return bool((code_words(code) == word).all(axis=1).any())


def test_membership_and_points():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    assert contains(code, [2, 2])
    points = code.points
    assert [(pid, mult) for pid, _, _, mult in points] == [(1, 1), (3, 1)]
    assert all(orbit == 2 for _, _, orbit, _ in points)
    ring, partial = make("Z4", [[1, 3]])
    assert contains(partial, [1, 3])
    assert not contains(partial, [1, 0])


# ----------------------------------------------------- lemma identities


def shifted_weight_sums(code, ds):
    """Both sides of every identity at each shift d in ds, as (rows,
    len(ds)) arrays, and the denominators: the coordinate sides at
    d_j, summed over j."""
    lhs, rhs, dens = coordinate_weight_sums(code)
    j = np.arange(code.n)
    return (np.stack([lhs[:, j, d].sum(axis=1) for d in ds], axis=1),
            np.stack([rhs[:, j, d].sum(axis=1) for d in ds], axis=1), dens)


def test_code_correlation_frozen_values():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    lhs, rhs, dens = shifted_weight_sums(code, [[0, 0], [1, 1]])
    assert [Fraction(int(v), dens[0]) for v in lhs[0]] \
        == [Fraction(int(v), dens[0]) for v in rhs[0]] == [45, Fraction(63, 2)]


def test_class_coset_sum_frozen_values():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    lhs, rhs, dens = shifted_weight_sums(code, [[0, 0], [1, 1]])
    assert lhs.shape == rhs.shape == (3, 2)
    (_, lhs1, lhs2), (_, rhs1, rhs2), den = lhs, rhs, dens[1]
    # with no shift the smaller class sums its own weights: 4 * 3/2 = 6
    assert Fraction(int(lhs1[0]), den) == Fraction(int(rhs1[0]), den) == 6
    # shifting by a weight-3 word pushes the sum to b1 w1' forms: 9
    assert Fraction(int(lhs1[1]), den) == Fraction(int(rhs1[1]), den) == 9
    assert Fraction(int(lhs2[1]), den) == Fraction(int(rhs2[1]), den) == 6
    # the classes and the zero word tile the whole-code shifted sum,
    # which a modular code pins at n |C|
    wd = Fraction(int(code.table.word_numerator([1, 1])), code.denominator)
    assert Fraction(int(lhs1[1] + lhs2[1]), den) + wd \
        == code.n * code.size == 18


def test_coordinate_identities_frozen():
    ring, code = make("GF(3)", [[1, 0], [0, 1]])
    lhs, rhs, _ = coordinate_weight_sums(code)
    assert lhs.shape == (3, 2, 3)
    assert lhs.tolist() == rhs.tolist()
    # a modular code that is not two-weight has the correlation row only
    ring, code = make("Z4", [[1, 2, 3]])
    assert code.profile is None
    lhs, rhs, dens = coordinate_weight_sums(code)
    assert lhs.shape == (1, 3, 4) and len(dens) == 1
    assert lhs.tolist() == rhs.tolist()


@pytest.mark.parametrize("rows,text", [
    ([[1, 0], [0, 1]], "GF(3)"),
    ([[1, 3]], "Z4"),
    ([[1, 0], [0, 1]], "GF(4)"),
    ([[1, 2, 3]], "Z4"),
])
def test_sweeps_green(rows, text):
    ring, code = make(text, rows)
    checks = ["code-correlation"]
    if two_weight_profile(code) is not None:
        checks += ["class-coset-sums", "coordinate-identities"]
    assert sweep_code_identities(code) == checks


# --------------------------------------------------------- code files


def test_code_file_round_trip():
    text = format_code_file("GF(3)", [[1, 0], [0, 1]])
    data = parse_code_file(text)
    assert data.ring_text == "GF(3)"
    assert data.k == 2 and data.n == 2
    assert data.rows == ((1, 0), (0, 1))
    assert format_code_file(data.ring_text, data.rows) == text


def test_code_file_errors():
    for bad in [
        "",
        "ring: Z4",
        "ring: Z4\nk: 1 n: 2",
        "ring: Z4\nk: x n: 2\n1 2",
        "ring: Z4\nk: 2 n: 2\n1 2",
        "ring: Z4\nk: 1 n: 2\n1 2 3",
        "k: 1 n: 2\n1 2\nring: Z4",
        "ring: Z4\nk: 1 n: 2\n1 q",
    ]:
        with pytest.raises(SpecParseError):
            parse_code_file(bad)
