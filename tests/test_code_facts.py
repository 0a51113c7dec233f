"""A code's derived facts (index, weights, two-weight profile, support)
are computed once per LinearCode, and the cached values are the free
functions' results whatever order they are read in."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcode import codes
from frobcode.cli import main
from frobcode.codes import (
    build_code,
    modular_index,
    support_with_zero,
    two_weight_profile,
)
from frobcode.errors import PreconditionError
from frobcode.rings import ring_from_text
from span_oracle import code_words

F3_IDENTITY = "ring: GF(3)\nk: 2 n: 2\n1 0\n0 1\n"
SPIED = ("two_weight_profile", "modular_index", "support_with_zero")


def test_each_fact_is_computed_once_per_code(monkeypatch, tmp_path, capsys):
    calls = {name: Counter() for name in SPIED}
    built = []

    def spy(name):
        real = getattr(codes, name)

        def counted(code):
            calls[name][id(code)] += 1
            return real(code)
        return counted

    for name in SPIED:
        monkeypatch.setattr(codes, name, spy(name))
    real_init = codes.LinearCode.__init__

    def init(self, *args):
        built.append(self)  # keeps every code alive, so ids stay unique
        real_init(self, *args)

    monkeypatch.setattr(codes.LinearCode, "__init__", init)
    path = tmp_path / "f3.code"
    path.write_text(F3_IDENTITY)
    # the searches certify every candidate from their tables of R^k and
    # build no code
    for argv in (["search", "GF(3)", "k=3", "n_max=9", "--index1"],
                 ["search", "GF(2)", "k=3", "n_max=7"]):
        assert main(argv) == 0
    assert built == []
    for argv in (["analyze", str(path)], ["graph", str(path)],
                 ["dual", str(path)]):
        assert main(argv) == 0
    capsys.readouterr()
    ids = {id(code) for code in built}
    for name in SPIED:
        assert set(calls[name]) <= ids
        assert max(calls[name].values()) == 1, name
    # each command builds its code once, which is indexed and profiled;
    # analyze gives its support to the equivalence check
    assert len(built) == 3
    assert len(calls["modular_index"]) == 3
    assert len(calls["two_weight_profile"]) == 3
    assert len(calls["support_with_zero"]) >= 1


SPECS = ["Z4", "GF(4)", "M2(GF(2))", "prod(Z2,Z2)"]
FACTS = ["index", "weight_distribution", "nonzero_weights", "profile",
         "support", "points", "modular_two_weight"]
_rings = {}


def _ring(spec):
    if spec not in _rings:
        _rings[spec] = ring_from_text(spec)
    return _rings[spec]


def _read(code, fact):
    if fact == "modular_two_weight":
        try:
            return code.modular_two_weight("a test")
        except PreconditionError as exc:
            return str(exc)
    return getattr(code, fact)


@st.composite
def codes_and_orders(draw):
    ring = _ring(draw(st.sampled_from(SPECS)))
    k, n = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, ring.order - 1),
                            min_size=k * n, max_size=k * n))
    generator = np.array(entries, dtype=np.int32).reshape(k, n)
    generator[0, (generator == 0).all(axis=0)] = 1
    return ring, generator, draw(st.permutations(FACTS))


@settings(max_examples=60, deadline=None)
@given(case=codes_and_orders())
def test_cached_facts_equal_the_free_functions(case):
    ring, generator, order = case
    code = build_code(ring, generator)
    got = {fact: _read(code, fact) for fact in order}
    # every fact again, from the free functions on a fresh code
    fresh = build_code(ring, generator)
    vals, counts = np.unique(fresh.table.word_numerator(code_words(fresh)),
                             return_counts=True)
    distribution = {Fraction(int(v), fresh.denominator): int(c)
                    for v, c in zip(vals, counts)}
    nonzero = tuple(sorted(w for w in distribution if w != 0))
    index = modular_index(fresh)
    profile = two_weight_profile(fresh)
    assert got["index"] == index
    assert got["weight_distribution"] == distribution
    assert got["nonzero_weights"] == nonzero
    assert got["profile"] == profile
    assert np.array_equal(got["support"], support_with_zero(fresh))
    assert [(pid, size, mult) for pid, _, size, mult in got["points"]] == [
        (pid, size, mult) for pid, _, size, mult in fresh.points]
    if len(nonzero) != 2:
        expected = "a test needs a two-weight code"
    elif index is None:
        expected = "code is not modular"
    else:
        expected = profile
    assert got["modular_two_weight"] == expected
    # a second read returns the same object
    for fact in FACTS[:-1]:
        assert getattr(code, fact) is got[fact]


@pytest.mark.parametrize("rows,message", [
    ([[1, 2, 3]], "a test needs a two-weight code"),
    ([[1, 1, 1, 2]], "code is not modular"),
])
def test_two_weight_preconditions(rows, message):
    code = build_code(_ring("Z4"), np.array(rows, dtype=np.int32))
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        code.modular_two_weight("a test")
    if message == "code is not modular":
        assert code.two_weight("a test") == code.profile
    else:
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            code.two_weight("a test")
