"""End-to-end command-line checks: frozen report text, exit codes,
JSON emission, and determinism of repeated runs."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from frobcode.cli import main
from frobcode.codes import build_code, format_code_file
from frobcode.graphs import build_coset_graph, coset_graph_srg
from frobcode.rings import ring_from_text

F3_IDENTITY = "ring: GF(3)\nk: 2 n: 2\n1 0\n0 1\n"
Z4_ONE_WEIGHT = "ring: Z4\nk: 1 n: 3\n1 2 3\n"
Z4_ZERO_COLUMN = "ring: Z4\nk: 1 n: 2\n1 0\n"
Z9_IDENTITY = "ring: Z9\nk: 2 n: 2\n1 0\n0 1\n"
# the ten points of the elliptic quadric x0 x1 + x2^2 + x3^2 = 0 in
# PG(3,3), and the hyperoval {(1,t,t^2)} + (0,0,1) + (0,1,0) in PG(2,4):
# their duals have words of length 60 and 45, whose keys pass int64
ELLIPTIC_QUADRIC = ("ring: GF(3)\nk: 4 n: 10\n0 1 1 1 1 1 1 1 1 1\n"
                    "1 0 1 1 1 1 2 2 2 2\n0 0 1 1 2 2 0 0 1 2\n"
                    "0 0 1 2 1 2 1 2 0 0\n")
HYPEROVAL = ("ring: GF(4)\nk: 3 n: 6\n1 1 1 1 0 0\n0 1 2 3 0 1\n"
             "0 1 3 2 1 0\n")
# prod(Z2,Z2), k=2: the b0 = 2 code of GRAPH_GOLDEN["p22"] with each
# column repeated 8 times, n=32, so 4^32 > 2^62 and no word has an
# int64 key
P22_X8 = format_code_file("prod(Z2,Z2)", np.repeat(
    [[3, 0, 2, 1], [1, 1, 1, 1]], 8, axis=1))
# GF(2), k=4: the columns e1, e2, e1+e2, e3, e4, e3+e4 tiled 11 times,
# n=66; its coset graph and its dual's graph are srg(16,6,2,2)
HALVES_66 = format_code_file("GF(2)", np.tile(
    [[1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 0, 1],
     [0, 0, 0, 0, 1, 1]], 11))


SRC = Path(__file__).resolve().parents[1] / "src"


def z4_srg256_code():
    """Z4, k=4, n=30: one column per nonzero vector of the span of
    e1, e2 and of the span of e3, e4; its graph is srg(256,30,14,2)."""
    columns = []
    for first, second in ((0, 1), (2, 3)):
        for a, b in itertools.product(range(4), repeat=2):
            if a or b:
                column = [0] * 4
                column[first], column[second] = a, b
                columns.append(column)
    rows = [" ".join(str(col[i]) for col in columns) for i in range(4)]
    return "ring: Z4\nk: 4 n: 30\n" + "\n".join(rows) + "\n"


def run_module(argv, timeout, limit_mb=None):
    """The frobcode command with argv in a fresh interpreter, under an
    address-space limit of limit_mb MiB when one is given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    command = ["-m", "frobcode"]
    if limit_mb is not None:
        command = ["-c", "import resource, sys; "
                   f"limit = {limit_mb << 20}; "
                   "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
                   "from frobcode.cli import main; sys.exit(main())"]
    return subprocess.run([sys.executable, *command, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_code(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_ring_z4(capsys):
    rc, out, err = run_cli(capsys, ["ring", "Z4"])
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert "order: 4" in lines
    assert "units: 2" in lines
    assert "character exponent: 4" in lines
    assert "  0: 0" in lines
    assert "  1: 1" in lines
    assert "  2: 2" in lines
    assert "  3: 1" in lines
    assert "zero-weight elements: 0" in lines
    assert "check zero-set: pass" in lines
    assert "check coset-sums: pass" in lines


def test_ring_m2_gf8_coset_sums(capsys):
    rc, out, err = run_cli(capsys, ["ring", "M2(GF(8))"])
    assert rc == 0 and err == ""
    assert "check coset-sums: pass" in out.splitlines()


def test_ring_json_file(capsys, tmp_path):
    path = tmp_path / "ring.json"
    rc, out, err = run_cli(capsys, ["ring", "Z4", "--json", str(path)])
    assert rc == 0
    payload = json.loads(path.read_text())
    assert payload["ring"] == "Z4"
    assert payload["order"] == 4
    assert payload["units"] == 2
    assert payload["weights"] == {"0": "0", "1": "1", "2": "2", "3": "1"}
    assert payload["zero_weight_elements"] == ["0"]
    assert payload["checks"] == {"zero-set": True, "coset-sums": True}


def test_weights_gf4(capsys):
    rc, out, err = run_cli(capsys, ["weights", "GF(2^2)"])
    assert rc == 0
    values = [line.split(": ")[1] for line in out.splitlines()]
    assert sorted(values) == ["0", "4/3", "4/3", "4/3"]


def test_verify_z4(capsys, tmp_path):
    path = tmp_path / "verify.json"
    rc, out, err = run_cli(capsys, ["verify", "Z4", "--json", str(path)])
    assert rc == 0 and err == ""
    payload = json.loads(path.read_text())
    checks = payload["checks"]
    assert checks["zero-set"] == "pass"
    assert checks["coset-sums"] == "pass"
    assert checks["word-correlation-k1"] == "pass"
    assert checks["word-correlation-k2"] == "pass"


def test_verify_fault_injection(capsys):
    rc, out, err = run_cli(capsys, ["verify", "Z4", "--inject-fault"])
    assert rc == 1
    assert "verification failure" in err
    assert "witness" in err
    assert "ideal" in err


def test_verify_sampled_fallback(capsys):
    argv = ["verify", "M2(GF(2))", "--cap", "10"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0
    assert "word-correlation-k1: pass (sampled, n=200, seed=0)" in out
    assert "word-correlation-k2: pass (sampled, n=200, seed=0)" in out
    rc2, out2, err2 = run_cli(capsys, argv)
    assert out2 == out


def test_verify_full_respects_cap(capsys):
    rc, out, err = run_cli(capsys,
                           ["verify", "M2(GF(2))", "--full", "--cap", "10"])
    assert rc == 2
    assert "error:" in err


def test_verify_default_cap_m2_gf4_passes_in_2_gib():
    # both word correlation lines are derived from the checks above
    # them, with no sweep of R^k, in an address space far below the
    # 16 GiB of an unreduced dot table
    start = time.monotonic()
    proc = run_module(["verify", "M2(GF(4))"], 60, limit_mb=2048)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        f"check {name}: pass" for name in (
            "zero-set", "unit-invariance", "coset-sums", "ideal-correlation",
            "sum-of-squares", "word-correlation-k1", "word-correlation-k2")]
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("spec", ["M2(GF(8))", "Z4096"])
def test_verify_order_4096_passes_at_a_cap_of_order_squared(capsys, spec):
    # at the ring order cap, with R^2 within the enumeration cap, both
    # word correlation lines are derived from the checks above them
    rc, out, err = run_cli(capsys, ["verify", spec, "--cap", "16777216"])
    assert rc == 0 and err == ""
    assert out.splitlines() == [
        f"check {name}: pass" for name in (
            "zero-set", "unit-invariance", "coset-sums", "ideal-correlation",
            "sum-of-squares", "word-correlation-k1", "word-correlation-k2")]


def test_parse_errors_exit_2(capsys):
    for spec in ["Z4x", "Z1", "GF(6)", "M0(GF(2))", "GF(2,poly=1,1,1)",
                 "GF(3^1,poly=0,0,0,1)"]:
        rc, out, err = run_cli(capsys, ["ring", spec])
        assert rc == 2, spec
        assert "error:" in err


def test_missing_file_exit_2(capsys, tmp_path):
    rc, out, err = run_cli(capsys, ["analyze", str(tmp_path / "nope.code")])
    assert rc == 2
    assert "error:" in err


def test_zero_column_exit_2(capsys, tmp_path):
    path = write_code(tmp_path, "zc.code", Z4_ZERO_COLUMN)
    rc, out, err = run_cli(capsys, ["analyze", path])
    assert rc == 2
    assert "column" in err


def test_env_cap_and_override(capsys, tmp_path, monkeypatch):
    path = write_code(tmp_path, "z9.code", Z9_IDENTITY)
    monkeypatch.setenv("FROBCODE_CAP", "10")
    rc, out, err = run_cli(capsys, ["analyze", path])
    assert rc == 2
    assert "error:" in err
    rc, out, err = run_cli(capsys, ["analyze", path, "--cap", "100"])
    assert rc == 0


def test_search_cap_overrides_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("FROBCODE_CAP", "8")
    rc, out, err = run_cli(capsys, ["search", "Z4", "k=2", "n_max=4",
                                    "--cap", "100"])
    assert rc == 0 and err == ""
    assert out.splitlines()[-1] == (
        "candidates: 144 (one-weight: 19, two-weight: 53, mixed: 72)")


def test_analyze_f3_identity(capsys, tmp_path):
    path = write_code(tmp_path, "f3.code", F3_IDENTITY)
    rc, out, err = run_cli(capsys, ["analyze", path])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ring"] == "GF(3)"
    assert (payload["k"], payload["n"], payload["size"]) == (2, 2, 9)
    assert payload["b0"] == 1
    assert payload["histogram"] == {"0": 1, "3/2": 4, "3": 4}
    assert payload["modular_index"] == "1/2"
    profile = payload["profile"]
    assert (profile["w1"], profile["w2"]) == ("3/2", "3")
    assert (profile["b1"], profile["b2"]) == (4, 4)
    assert profile["trivial"] is False
    assert payload["lemma_checks"] == {
        "code-correlation": True,
        "class-coset-sums": True,
        "coordinate-identities": True,
    }


def test_analyze_non_modular_profile_has_no_triviality(capsys, tmp_path):
    # a non-modular two-weight code: its coset graph is the nontrivial
    # srg(9,4,1,2), which the closed forms do not predict, so the
    # profile states no triviality
    rows = [[0, 0, 1, 1, 1, 1], [1, 1, 0, 0, 1, 2]]
    path = write_code(tmp_path, "nonmodular.code",
                      format_code_file("GF(3)", np.array(rows)))
    rc, out, err = run_cli(capsys, ["analyze", path])
    assert rc == 0
    payload = json.loads(out)
    assert payload["modular_index"] is None
    assert payload["profile"]["index"] is None
    assert payload["profile"]["trivial"] is None
    srg = coset_graph_srg(build_coset_graph(
        build_code(ring_from_text("GF(3)"), rows)))
    assert srg.as_tuple() == (9, 4, 1, 2) and not srg.trivial


def test_analyze_byte_identical(capsys, tmp_path):
    path = write_code(tmp_path, "f3.code", F3_IDENTITY)
    _, first, _ = run_cli(capsys, ["analyze", path])
    _, second, _ = run_cli(capsys, ["analyze", path])
    assert first == second


def test_graph_f3(capsys, tmp_path):
    path = write_code(tmp_path, "f3.code", F3_IDENTITY)
    rc, out, err = run_cli(capsys, ["graph", path])
    assert rc == 0
    assert ("measured:  N=9 K=4 lambda=1 mu=2 trivial=false"
            in out.splitlines())
    assert ("predicted: N=9 K=4 lambda=1 mu=2 trivial=false"
            in out.splitlines())
    assert "graph parameters: pass" in out


def test_graph_dot_output(capsys, tmp_path):
    path = write_code(tmp_path, "f3.code", F3_IDENTITY)
    dot = tmp_path / "f3.dot"
    rc, out, err = run_cli(capsys, ["graph", path, "--dot", str(dot)])
    assert rc == 0
    assert "wrote" in out and "9 vertices, 18 edges" in out
    text = dot.read_text()
    assert text.startswith("graph coset_graph {")
    assert text.count(" -- ") == 18
    assert text.count("[label=") == 9


# sha256 of `graph` stdout and of the `graph --dot` file, recorded
# before the coset graph was measured in Cayley form
GRAPH_GOLDEN = {
    "f3": (F3_IDENTITY,
           "68794c09e1a5cb60cd577672c4bc8db355e20cef807ab291b870edc80fc4c1bf",
           "60bc7c306c96bb3d6a5bb768cdf61b9b3a564bd6923e5cbfa5176a91584e9814"),
    "z4": (z4_srg256_code(),
           "3e522ef9625c00b611f37aed7e7b7f15d5d9858e617ce6a2ee03a7273ebeb5d6",
           "aec9574226bf100596be433724430f6d7777ee518afac7277c7042bd5c5efb01"),
    # b0 = 2: the vertices are cosets of a nontrivial zero-weight subcode
    "p22": ("ring: prod(Z2,Z2)\nk: 2 n: 4\n3 0 2 1\n1 1 1 1\n",
            "712006d7f644407171c4aa6a47be0d45d46cef7a5d116e62090cfb8faf770de7",
            "8e53fd295b845b6c46c008e2ce36e4f4881ddcfb514b922e1cbff469b91e741e"),
    # recorded while the words were still stored and keyed: the labels
    # are words past int64 keys (p22x8) or 66 long (halves66)
    "p22x8": (
        P22_X8,
        "712006d7f644407171c4aa6a47be0d45d46cef7a5d116e62090cfb8faf770de7",
        "59175106a7efa5c1da092d5487c46e3b7930b1383f35db0a6cd3f6324afca987"),
    "halves66": (
        HALVES_66,
        "5fda5a3eef1937b8aaab81583afa4296e3832f4eaca3f9ebe021e15379ae522e",
        "196a928d0c612f9c6023f29e93a89d7d5f24539efd19deef8a03d74f9db1ef6d"),
}


@pytest.mark.parametrize("name", sorted(GRAPH_GOLDEN))
def test_graph_golden_digests(capsys, tmp_path, name):
    text, stdout_digest, dot_digest = GRAPH_GOLDEN[name]
    path = write_code(tmp_path, f"{name}.code", text)
    rc, out, err = run_cli(capsys, ["graph", path])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    dot = tmp_path / f"{name}.dot"
    rc, out, err = run_cli(capsys, ["graph", path, "--dot", str(dot)])
    assert rc == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == dot_digest


def test_graph_dot_respects_cap(capsys, tmp_path, monkeypatch):
    # the dot file needs the 9 x 9 adjacency matrix; measuring does not
    path = write_code(tmp_path, "f3.code", F3_IDENTITY)
    monkeypatch.setenv("FROBCODE_CAP", "80")
    rc, out, err = run_cli(capsys, ["graph", path])
    assert rc == 0
    rc, out, err = run_cli(capsys, ["graph", path, "--dot",
                                    str(tmp_path / "f3.dot")])
    assert rc == 2
    assert err == "error: coset graph adjacency of 9x9 entries exceeds cap 80\n"


def test_graph_dot_obeys_the_cap_option(capsys, tmp_path, monkeypatch):
    # --cap bounds the adjacency's entries, over FROBCODE_CAP either way
    path = write_code(tmp_path, "f3.code", F3_IDENTITY)
    dot = tmp_path / "f3.dot"
    monkeypatch.setenv("FROBCODE_CAP", "8")
    rc, out, err = run_cli(capsys, ["graph", path, "--dot", str(dot),
                                    "--cap", "100000"])
    assert (rc, err) == (0, "")
    assert out.splitlines() == [f"wrote {dot}: 9 vertices, 18 edges",
                                "graph parameters: pass"]
    assert dot.read_text().count(" -- ") == 18
    dot.unlink()
    monkeypatch.delenv("FROBCODE_CAP")
    rc, out, err = run_cli(capsys, ["graph", path, "--dot", str(dot),
                                    "--cap", "50"])
    assert rc == 2
    assert err == "error: coset graph adjacency of 9x9 entries exceeds cap 50\n"
    assert not dot.exists()


def test_graph_rejects_one_weight(capsys, tmp_path):
    path = write_code(tmp_path, "ow.code", Z4_ONE_WEIGHT)
    rc, out, err = run_cli(capsys, ["graph", path])
    assert rc == 2
    assert "two-weight" in err


def test_dual_f3(capsys, tmp_path):
    path = write_code(tmp_path, "f3.code", F3_IDENTITY)
    rc, out, err = run_cli(capsys, ["dual", path])
    assert rc == 0
    payload = json.loads(out)
    assert payload["w1_dual"] == "3"
    assert payload["w2_dual"] == "6"
    assert payload["srg_measured"] == [9, 4, 1, 2]
    assert payload["srg_predicted"] == [9, 4, 1, 2]
    assert payload["dual_modular_index"] == "1"
    assert payload["trivial"] is False
    assert len(payload["checks"]) == 8
    assert all(payload["checks"].values())


def test_dual_z4_srg256(capsys, tmp_path):
    # the dual enumerates the 256-element column module, not 4**30
    # message vectors
    path = write_code(tmp_path, "z4.code", z4_srg256_code())
    rc, out, err = run_cli(capsys, ["dual", path])
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["srg_measured"] == [256, 30, 14, 2]
    assert payload["srg_predicted"] == [256, 30, 14, 2]
    assert all(payload["checks"].values())


def test_dual_cap_below_code_size(capsys, tmp_path):
    path = write_code(tmp_path, "z4.code", z4_srg256_code())
    rc, out, err = run_cli(capsys, ["dual", path, "--cap", "255"])
    assert rc == 2
    assert "exceeds cap 255" in err


@pytest.mark.parametrize("value", ["abc", "-1", "0", "1e3"])
def test_env_cap_must_be_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("FROBCODE_CAP", value)
    for argv in (["--help"], ["ring", "Z4"]):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        assert err == ("error: FROBCODE_CAP must be a positive integer, "
                       f"got {value!r}\n")


def test_search_huge_n_max_exits_fast():
    start = time.monotonic()
    proc = run_module(["search", "GF(2)", "k=2", "n_max=100000000"], 30)
    assert proc.returncode == 2
    assert proc.stderr == ("error: codewords of 4 x 100000000 entries "
                           "exceed cap 1048576\n")
    assert time.monotonic() - start < 10
    # a small mult_cap bounds the lengths, so the search runs
    proc = run_module(["search", "GF(2)", "k=2", "n_max=100000000",
                       "mult_cap=3"], 30)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == (
        "candidates: 21 (one-weight: 12, two-weight: 9, mixed: 0)")
    # past int64, n_max is bounded by mult_cap columns on each point and
    # mult_cap by n_max, before any int64 arithmetic
    huge = "100000000000000000000"
    bounded = run_module(["search", "GF(2)", "k=2", f"n_max={huge}",
                          "mult_cap=3"], 30)
    assert (bounded.returncode, bounded.stdout, bounded.stderr) == (
        0, proc.stdout, "")
    plain = run_module(["search", "GF(2)", "k=2"], 30)
    bounded = run_module(["search", "GF(2)", "k=2", f"mult_cap={huge}"], 30)
    assert plain.returncode == 0
    assert (bounded.returncode, bounded.stdout, bounded.stderr) == (
        0, plain.stdout, "")
    assert time.monotonic() - start < 20


@pytest.mark.parametrize("k,total", [
    (40, "2**40 = 1099511627776"), (62, "2**62 = 4611686018427387904"),
    (63, "2**63"), (20000, "2**20000"), (1000000000, "2**1000000000"),
])
def test_search_huge_k_exits_fast(capsys, k, total):
    # order**k is named in digits only while it fits int64, and is not
    # built at all when it is far past the cap
    start = time.monotonic()
    rc, out, err = run_cli(capsys, ["search", "GF(2)", f"k={k}"])
    assert (rc, out) == (2, "")
    assert err == f"error: enumerating {total} vectors exceeds cap 1048576\n"
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("spec,message", [
    ("GF(1000000000000000003)",
     "ring order 1000000000000000003 exceeds cap 4096"),
    ("GF(2^100000000)", "ring order 2^100000000 exceeds cap 4096"),
    ("M100000(GF(2))", "ring order 2^10000000000 exceeds cap 4096"),
    ("Z" + "9" * 5000,
     "integer of 5000 digits exceeds the order cap 4096 (at position 1)"),
], ids=["GF(1000000000000000003)-1000000000000000003",
        "GF(2^100000000)-2^100000000", "M100000(GF(2))-2^10000000000",
        "Z<5000 nines>"])
def test_huge_ring_order_exits_fast(spec, message):
    # the order cap is checked before primality tests or the order's
    # digits are computed, and an over-long integer before int() reads it
    start = time.monotonic()
    proc = run_module(["ring", spec], 30)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert time.monotonic() - start < 10


def test_search_z4_golden_digests(capsys, tmp_path):
    # byte-identical stdout and JSON report: the digests recorded in
    # bench/golden.json
    path = tmp_path / "search.json"
    rc, out, err = run_cli(capsys, ["search", "Z4", "k=2", "n_max=8",
                                    "--json", str(path)])
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fadce072b1418c7eec7d4bb0f4e79280c25c91d63a356dbbfcdecc3674e44bc5")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "dee3afc31b14cbba7e6c1c25a9ca0889447806c5066ce117dc0d750a0615f6f8")


def test_search_gf3(capsys):
    rc, out, err = run_cli(capsys, ["search", "GF(3)", "k=2", "n_max=4"])
    assert rc == 0
    lines = out.splitlines()
    target = ("[two-weight] points=1,3 r=1/2 n=2 |C|=9 b0=1 w=(3/2,3) "
              "srg=(9,4,1,2) trivial=false dual_w=(3,6) pds=(9,4,1,2)")
    assert target in lines
    assert re.fullmatch(
        r"candidates: \d+ \(one-weight: \d+, two-weight: \d+, mixed: \d+\)",
        lines[-1])
    _, again, _ = run_cli(capsys, ["search", "GF(3)", "k=2", "n_max=4"])
    assert again == out


def test_search_json(capsys, tmp_path):
    path = tmp_path / "search.json"
    rc, out, err = run_cli(capsys, ["search", "GF(3)", "k=2", "n_max=3",
                                    "--json", str(path)])
    assert rc == 0
    payload = json.loads(path.read_text())
    assert payload["ring"] == "GF(3)"
    assert payload["records"]
    for rec in payload["records"]:
        assert rec["classification"] in ("one-weight", "two-weight", "mixed")
        if rec["classification"] == "two-weight" and rec["b0"] == 1:
            assert rec["dual"] is not None
            assert rec["equivalence"]["pds"] is not None


def test_search_one_weight_with_zero_weight_words(capsys):
    # over prod(Z2,Z2) the unit (1,1) has weight 0, so the code R has
    # b0 = 2; the b0 = 1 support characterization does not apply to it
    rc, out, err = run_cli(capsys, ["search", "prod(Z2,Z2)", "k=1",
                                    "n_max=1"])
    assert rc == 0, err
    assert out.splitlines() == [
        "[one-weight] points=1 r=1 n=1 |C|=4 b0=2 w=(2)",
        "[one-weight] points=2 r=1 n=1 |C|=2 b0=1 w=(2) pds=(2,1,0,0)",
        "[one-weight] points=3 r=1 n=1 |C|=2 b0=1 w=(2) pds=(2,1,0,0)",
        "candidates: 3 (one-weight: 3, two-weight: 0, mixed: 0)",
    ]


def test_search_weight_vanishing_off_zero(capsys):
    # points (0,1) and (1,0) give a trivial two-weight code whose
    # complement in the column module is no submodule; the complement
    # claim is only asserted when the weight vanishes only at 0
    rc, out, err = run_cli(capsys, ["search", "prod(Z2,Z2)", "k=1",
                                    "n_max=2"])
    assert rc == 0, err
    assert out.splitlines()[-1] == (
        "candidates: 9 (one-weight: 6, two-weight: 3, mixed: 0)")


def test_search_certifies_a_dual_past_int64_keys(capsys, tmp_path):
    # the dual of these srg(81,24,9,6) hits has words of length 24 over
    # Z9, whose keys pass int64: it is certified like every other dual
    path = tmp_path / "search.json"
    rc, out, err = run_cli(capsys, ["search", "Z9", "k=2", "n_max=4",
                                    "--json", str(path)])
    assert rc == 0, err
    lines = out.splitlines()
    assert ("[two-weight] points=1,9,10,11 r=1/6 n=4 |C|=81 b0=1 w=(3,9/2) "
            "srg=(81,24,9,6) trivial=false dual_w=(18,27) pds=(81,24,9,6)"
            ) in lines
    assert lines[-1] == (
        "candidates: 976 (one-weight: 29, two-weight: 149, mixed: 798)")
    assert sum(" dual_w=(" in line for line in lines) == 149
    records = json.loads(path.read_text())["records"]
    duals = [rec["dual"] for rec in records
             if rec["classification"] == "two-weight"]
    assert len(duals) == 149
    assert all(set(dual) == {"w1_dual", "w2_dual", "srg"} for dual in duals)


@pytest.mark.parametrize("text,weights,srg", [
    (ELLIPTIC_QUADRIC, ("54", "63"), [81, 20, 1, 6]),
    (HYPEROVAL, ("40", "48"), [64, 18, 2, 6]),
], ids=["elliptic-quadric", "hyperoval"])
def test_dual_past_int64_keys(capsys, tmp_path, text, weights, srg):
    # the elliptic quadric's dual graph is the Brouwer-Haemers graph
    path = write_code(tmp_path, "wide.code", text)
    rc, out, err = run_cli(capsys, ["dual", path])
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert (report["w1_dual"], report["w2_dual"]) == weights
    assert report["srg_measured"] == report["srg_predicted"] == srg
    assert all(report["checks"].values()) and len(report["checks"]) == 8


def test_dual_obeys_cap_over_env(capsys, monkeypatch, tmp_path):
    # every step of the dual pipeline, the span of the smaller-weight
    # words too, runs under --cap rather than FROBCODE_CAP
    monkeypatch.setenv("FROBCODE_CAP", "8")
    path = write_code(tmp_path, "f3.code", F3_IDENTITY)
    rc, out, err = run_cli(capsys, ["dual", path, "--cap", "100"])
    assert (rc, err) == (0, "")
    assert json.loads(out)["srg_measured"] == [9, 4, 1, 2]


def test_search_json_does_not_take_a_parameter_as_path(capsys, monkeypatch,
                                                       tmp_path):
    monkeypatch.chdir(tmp_path)
    expected = run_cli(capsys, ["search", "GF(3)", "k=2", "n_max=3",
                                "--json"])
    got = run_cli(capsys, ["search", "GF(3)", "--json", "k=2", "n_max=3"])
    assert got == expected and expected[0] == 0
    assert '"records"' in got[1]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["search", "Z4", "k=2", "n_max=3", "--dedupe"],
    ["ring", "Z4", "--cap", "10"],
    ["weights", "Z4", "--cap", "10"],
])
def test_removed_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_search_index1(capsys):
    rc, out, err = run_cli(capsys,
                           ["search", "GF(3)", "k=2", "n_max=4", "--index1"])
    assert rc == 0
    for line in out.splitlines()[:-1]:
        assert " r=1 " in line


def test_search_index1_obeys_mult_cap(capsys):
    # every orbit of the GF(3) plane has two members, so at index 1 no
    # column multiplicity fits mult_cap=1
    base = ["search", "GF(3)", "k=2", "n_max=8", "--index1"]
    rc, capped, err = run_cli(capsys, base + ["mult_cap=1"])
    assert rc == 0, err
    assert capped == ("candidates: 0 (one-weight: 0, two-weight: 0, "
                      "mixed: 0)\n")
    # without mult_cap the output is unchanged: its digest was recorded
    # before mult_cap applied at index 1
    rc, out, err = run_cli(capsys, base)
    assert rc == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d8a359cf6fe62a733af983c98d499ca0e045dd92008ee1deb73a1f4da44d6d18")


@pytest.mark.parametrize("params", [["mult_cap=1"], ["k=2", "n_max=3"]])
def test_search_params_anywhere_after_the_spec(capsys, params):
    after = run_cli(capsys, ["search", "GF(3)", "k=2", "n_max=8", "--index1",
                             *params])
    before = run_cli(capsys, ["search", "GF(3)", "k=2", "n_max=8", *params,
                              "--index1"])
    assert after[0] == 0, after[2]
    assert after == before


def test_search_bad_params(capsys):
    for argv in (["search", "Z4", "k=x"],
                 ["search", "Z4", "bogus"],
                 ["search", "Z4", "depth=3"]):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2, argv
        assert "error:" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "frobcode", "weights", "Z4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "2: 2" in proc.stdout


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


# GF(2), k=6, n=14: one column per nonzero vector of span(e1, e2, e3)
# and of span(e4, e5, e6).
GF2_HALVES = """ring: GF(2)
k: 6 n: 14
0 0 0 1 1 1 1 0 0 0 0 0 0 0
0 1 1 0 0 1 1 0 0 0 0 0 0 0
1 0 1 0 1 0 1 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 0 1 1 1 1
0 0 0 0 0 0 0 0 1 1 0 0 1 1
0 0 0 0 0 0 0 1 0 1 0 1 0 1
"""
EMPTY = hashlib.sha256(b"").hexdigest()
PASS_7 = "4ba48b76ebeb307416b1f1520551558181b147a1e2cc778c4eaceb7953308bdc"

# argv (an analyze or dual run takes its code file's text in place of
# its path), exit code, and the sha256 of stdout and of stderr, recorded
# before each weight identity had one evaluator (the verify, ring and
# analyze runs) and before the search settled every candidate from
# point tables (the search runs)
CLI_GOLDEN = {
    "verify Z32": (["verify", "Z32"], 0, PASS_7, EMPTY),
    "verify Z32 --json": (
        ["verify", "Z32", "--json"], 0,
        "7e570946b9c8626243da28b5745207dbb2ffe7da5e7355e9166734134091bd53",
        EMPTY),
    "verify prod(Z4,Z2)": (["verify", "prod(Z4,Z2)"], 0, PASS_7, EMPTY),
    "verify M2(GF(3))": (["verify", "M2(GF(3))"], 0, PASS_7, EMPTY),
    "verify sampled k=2": (
        ["verify", "M2(GF(2))", "--cap", "255", "--seed", "3"], 0,
        "d29613d6aa2e4aab7a9b8751e64f1de39565f2f729573ac323871c1bbdf88ad2",
        EMPTY),
    "verify --full past the cap": (
        ["verify", "M2(GF(2))", "--cap", "255", "--full"], 2,
        "51c4814182a0dfa5ae07e0f92b5dd85a1184b894314ddd3ee2f2544ad0f6cdc4",
        "3f25d172a68ac14c185c648ab0c6a18e350ee287a20031d28a54c64c7d2a38d5"),
    "verify --inject-fault": (
        ["verify", "Z6", "--inject-fault"], 1,
        "6cf668d20121019a688e46270e3f15c4bada4d76d47d5aaa882bff77731bf912",
        "ab590200032ea3b3940916ced7428abe960e69fc50689c93feb0173ade7e4e13"),
    "ring Z4 --json": (
        ["ring", "Z4", "--json"], 0,
        "7357a79301fd59035795e30318ea9a526ab407219d769b74f686663a194c489d",
        EMPTY),
    "analyze GF(3)": (
        ["analyze", F3_IDENTITY], 0,
        "ed2173bc1e86ea4705adebbd98a2f750f975d46f0b9affb94b1eba0781147c96",
        EMPTY),
    "search prod(Z2,Z2) b0 > 1": (
        ["search", "prod(Z2,Z2)", "k=2", "n_max=3"], 0,
        "60c24af03d210e88ed2a4ab55a58ec7dfb5f5f27a50c1e17109a4315d2594e08",
        EMPTY),
    "search prod(Z2,Z2) b0 > 1 --json": (
        ["search", "prod(Z2,Z2)", "k=2", "n_max=3", "--json"], 0,
        "64e07ef64c6932728411b73bf573add051ba50a2c2f339d0ea60760d54033063",
        EMPTY),
    "search Z8": (
        ["search", "Z8", "k=1", "n_max=6"], 0,
        "17b7f970ac738fc3560b4a073beb68884ecf35f8f25968f8ef3c58edde830c8d",
        EMPTY),
    "search Z8 --json": (
        ["search", "Z8", "k=1", "n_max=6", "--json"], 0,
        "9d828a0af25c659c4dff1f533e8f9d08ebcd1ff923215e77960cc64b6182205d",
        EMPTY),
    "search M2(GF(2))": (
        ["search", "M2(GF(2))", "k=1", "n_max=5"], 0,
        "d1d461615d35c0d17e705277831b8238637c7cf9404c1c6be483917085f87217",
        EMPTY),
    "search M2(GF(2)) --json": (
        ["search", "M2(GF(2))", "k=1", "n_max=5", "--json"], 0,
        "31ea403c390d7ade813fbcda58409d16642faa3439b8524fa474b24e72790ec8",
        EMPTY),
    "analyze sampled GF(2)": (
        ["analyze", GF2_HALVES], 0,
        "ca7158be9cfd90b41b3692842b33ca07c9a3fbd978a4a387fd44b14c1dfcca2a",
        EMPTY),
    # b0 = 2: the larger class leaves out the zero-weight words
    "analyze prod(Z2,Z2) b0 = 2": (
        ["analyze", GRAPH_GOLDEN["p22"][0]], 0,
        "c5e5e61754716dc252df2090f18aeeeef1456ec4bb197be281fe25d39199c5d6",
        EMPTY),
    # recorded while the words were still stored and keyed
    "analyze prod(Z2,Z2) n=32": (
        ["analyze", P22_X8], 0,
        "98534ae06d14c5b681e8244b995d3f55e3283a7bc8e821f7d88e3e9b797a4f97",
        EMPTY),
    "analyze GF(2) n=66": (
        ["analyze", HALVES_66], 0,
        "7d5fd12833d86b9fd968b3e60b94fe4757442518fce8033e473a969b7b10a838",
        EMPTY),
    "dual GF(2) n=66 --json": (
        ["dual", HALVES_66, "--json"], 0,
        "c15abdfdecfe1f9950901c243ed78aa3e71aeb8c8dc09a9f77c645dc225499cd",
        EMPTY),
    "dual GF(4) hyperoval --json": (
        ["dual", HYPEROVAL, "--json"], 0,
        "34df549fb5e3c303ae35c1f1485ad5173117a58545d44a4259ceb685058db342",
        EMPTY),
    "dual GF(3) --json": (
        ["dual", F3_IDENTITY, "--json"], 0,
        "6fdeed32ce94173cb18572b4aed8a59b11568ce4f8a7918b96bcb3ddb13bd309",
        EMPTY),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_golden_digests(capsys, tmp_path, name):
    argv, code, stdout_digest, stderr_digest = CLI_GOLDEN[name]
    if argv[0] in ("analyze", "dual"):
        argv = [argv[0], write_code(tmp_path, "x.code", argv[1]), *argv[2:]]
    rc, out, err = run_cli(capsys, argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(err.encode()).hexdigest() == stderr_digest


@pytest.mark.parametrize("command", ["verify"])
@pytest.mark.parametrize("sample", ["-3", "0"])
def test_sample_must_be_positive(capsys, command, sample):
    rc, out, err = run_cli(capsys, [command, "M2(GF(2))", "--cap", "255",
                                    "--sample", sample])
    assert rc == 2 and out == ""
    assert err == f"error: --sample must be a positive integer, got {sample}\n"


def refuse_ring_builds(monkeypatch):
    def build(text):
        raise AssertionError(f"ring {text} built")

    monkeypatch.setattr("frobcode.cli.ring_from_text", build)


@pytest.mark.parametrize("command", ["verify"])
def test_seed_must_be_nonnegative(capsys, monkeypatch, command):
    refuse_ring_builds(monkeypatch)
    rc, out, err = run_cli(capsys, [command, "M2(GF(2))", "--cap", "15",
                                    "--seed", "-1"])
    assert rc == 2 and out == ""
    assert err == "error: --seed must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("argv", [
    ["verify", "Z4"], ["analyze", "missing.code"], ["graph", "missing.code"],
    ["dual", "missing.code"], ["search", "GF(2)", "k=2"]])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_must_be_positive(capsys, monkeypatch, argv, cap):
    refuse_ring_builds(monkeypatch)
    rc, out, err = run_cli(capsys, [*argv, "--cap", cap])
    assert rc == 2 and out == ""
    assert err == f"error: --cap must be a positive integer, got {cap}\n"


@pytest.mark.parametrize("mult_cap", ["0", "-2"])
def test_search_mult_cap_must_be_positive(capsys, mult_cap):
    rc, out, err = run_cli(capsys, ["search", "GF(2)", "k=2", "n_max=4",
                                    f"mult_cap={mult_cap}"])
    assert rc == 2 and out == ""
    assert err == "error: search needs mult_cap >= 1\n"


def test_analyze_takes_no_sampling_flags(capsys, tmp_path):
    # analyze proves its shift identities one coordinate at a time, so
    # it has no shifts to sample
    path = write_code(tmp_path, "gf2.code", GF2_HALVES)
    for flags in (["--sample", "5"], ["--seed", "1"], ["--full"]):
        with pytest.raises(SystemExit) as info:
            main(["analyze", path, *flags])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["99999999999999999999999", "2147483648"])
def test_code_file_entry_past_int32_exits_2(capsys, tmp_path, entry):
    path = write_code(tmp_path, "big.code",
                      f"ring: Z4\nk: 1 n: 2\n1 {entry}\n")
    rc, out, err = run_cli(capsys, ["analyze", path])
    assert rc == 2 and out == ""
    assert err == "error: generator entries must be element indices below 4\n"


def test_verify_sample_past_the_cap_refused_before_drawing(capsys,
                                                           monkeypatch):
    monkeypatch.delenv("FROBCODE_CAP", raising=False)
    start = time.monotonic()
    rc, out, err = run_cli(capsys, ["verify", "Z4", "--cap", "3", "--sample",
                                    "99999999999999999999"])
    assert time.monotonic() - start < 1
    assert rc == 2 and len(out.splitlines()) == 5
    assert err == ("error: 99999999999999999999 sampled draws exceed cap "
                   "1048576\n")
    # the bound is the default cap, whatever --cap says
    for cap in ("10", "255", "65535"):
        rc, out, err = run_cli(capsys, ["verify", "Z4", "--cap", cap,
                                        "--sample", "200"])
        assert rc == 0 and err == "", cap
    # and a run that samples nothing takes the default count under any cap
    monkeypatch.setenv("FROBCODE_CAP", "100")
    rc, out, err = run_cli(capsys, ["verify", "Z4"])
    assert rc == 0 and err == ""
