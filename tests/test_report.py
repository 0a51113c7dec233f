"""The --json writer and the streamed search report.

The writer must give the bytes of json.dumps(indent=2, sort_keys=True)
for every payload it accepts, and refuse floats and numpy scalars.
``search --json`` must give the bytes of the one-piece oracle in
report_oracle.py, while holding no more than the search itself."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobcode.cli import _write_json, main
from frobcode.rings import ring_from_text
from frobcode.search import search_modular_codes
from report_oracle import search_report

ESCAPES = st.text(alphabet='"\\/\n\r\t\b\f\x00\x1f\x7f é€ 😀\ud800ab')
TEXT = ESCAPES | st.text()
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(max_value=-2 ** 64) | TEXT)
PAYLOADS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=25)


def written(value):
    chunks = []
    _write_json(value, chunks.append)
    return "".join(chunks)


@settings(max_examples=150, deadline=None, database=None)
@given(PAYLOADS)
@example({})
@example([])
@example({"": [], "a": {}, "b": [{}, [[]]]})
@example({'"key"\\': ['"quoted"', "\\", "é\U0001f600"]})
@example([-2 ** 100, 0, True, False, None])
def test_writer_matches_json_dumps(payload):
    assert written(payload) == json.dumps(payload, indent=2,
                                          sort_keys=True)


@pytest.mark.parametrize("bad", [
    1.5, float("nan"), np.int64(3), np.bool_(True), (1, 2),
    [1, 2.0], {"a": np.int64(1)}, {"a": [np.bool_(False)]}, {1: "a"}])
def test_writer_refuses_what_a_report_cannot_hold(bad):
    with pytest.raises(TypeError):
        written(bad)


SEARCHES = [
    ("GF(2)", 2, 8, False),
    ("GF(3)", 2, 8, False),
    ("GF(4)", 2, 8, False),
    ("Z4", 2, 8, False),
    ("prod(Z2,Z2)", 2, 3, False),
    ("M2(GF(2))", 1, 5, False),
    # no candidate
    ("GF(4)", 2, 2, True),
]


@pytest.mark.parametrize("spec,k,n_max,index_one", SEARCHES)
def test_search_report_matches_oracle(capsys, tmp_path, spec, k, n_max,
                                      index_one):
    ring = ring_from_text(spec)
    records = search_modular_codes(ring, k, n_max, index_one=index_one)
    want = search_report(ring.spec.text(), k, n_max, index_one, records)
    argv = ["search", spec, f"k={k}", f"n_max={n_max}"]
    argv += ["--index1"] if index_one else []
    path = tmp_path / "search.json"
    assert main([*argv, "--json", str(path)]) == 0
    lines = capsys.readouterr().out
    assert path.read_text() == want
    assert main([*argv, "--json"]) == 0
    assert capsys.readouterr().out == lines + want
    if index_one:
        assert records == []


def test_search_report_is_streamed(capsys, tmp_path):
    # the report once held every record's payload and its whole text:
    # a 24.5 MiB peak for 4095 records, against 5.1 MiB for the search
    # without --json
    path = tmp_path / "search.json"
    tracemalloc.start()
    try:
        code = main(["search", "GF(3)", "k=3", "n_max=13", "--index1",
                     "--json", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert len(json.loads(path.read_text())["records"]) == 4095
    assert peak < 8 * 2 ** 20
