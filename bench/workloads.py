"""The benchmark's four workloads: set-up, operations and output checks.

A workload's set-up builds every ring it uses together with its weight
table, and writes any input files.  Its operations run one after
another; each is a ``run`` callable, which is the timed part, and a
``check`` callable that turns run's output into an Outcome.  CLI
operations call ``cli.main`` in this process, so they rebuild their
rings as a CLI user does; library functions are called through their
module attribute, so that the tracer sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from capped import LIMIT_MB as CAPPED_LIMIT_MB
from frobcode import cli, codes, graphs, homweight, rings, spans

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())

CAPPED_TIMEOUT_S = 120


@dataclass(frozen=True)
class Outcome:
    ok: bool        # the operation met its contract
    wrong: bool     # it reported success with a wrong output
    digest: str     # identifies the output, to compare passes
    detail: str = ""


@dataclass(frozen=True)
class Operation:
    name: str
    run: object     # run(tracer) -> raw output; tracer is None untraced
    check: object   # check(raw) -> Outcome


def sha(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def build_rings(specs):
    built = {}
    for spec in specs:
        ring = rings.ring_from_text(spec)
        built[spec] = (ring, homweight.weight_table(ring))
    return built


# ------------------------------------------------------------ search


def search_operation(spec, params, outdir):
    name = " ".join(["search", spec, *params])
    path = outdir / f"search-{sha(name)[:12]}.json"
    golden = GOLDEN[name]

    def run(tracer):
        path.unlink(missing_ok=True)
        return run_cli(["search", spec, *params, "--json", str(path)])

    def check(raw):
        code, out, _ = raw
        if code != 0 or not path.exists():
            return Outcome(False, False, sha(f"{code}\n{out}"),
                           f"exit code {code}")
        report = path.read_bytes()
        path.unlink()
        same = (sha(out) == golden["stdout"]
                and sha(report) == golden["json"])
        return Outcome(same, not same, sha(out) + sha(report))

    return Operation(name, run, check)


def setup_search_rank2(seed, outdir):
    specs = ("GF(2)", "GF(3)", "GF(4)", "Z4")
    ctx = build_rings(specs)
    ops = [search_operation(spec, ["k=2", "n_max=8"], outdir)
           for spec in specs]
    return ctx, ops


def setup_search_rank3_index1(seed, outdir):
    ctx = build_rings(["GF(3)"])
    ops = [search_operation("GF(3)", ["k=3", "n_max=13", "--index1"],
                            outdir)]
    return ctx, ops


# ------------------------------------------------------- graph_large

# Two complementary halves of a basis of R^k, one column per nonzero
# vector of each half's span.  Every codeword's weight is 0, w1 or w2
# whatever the basis, so the parameters below are the same for every
# seed.
GRAPH_CODES = {
    "GF(2)": {"k": 10, "srg": (1024, 62, 30, 2),
              "profile": {"b0": 1, "b1": 62, "b2": 961, "index": "1",
                          "n": 62, "size": 1024, "trivial": False,
                          "w1": "32", "w2": "64"}},
    "Z4": {"k": 4, "srg": (256, 30, 14, 2),
           "profile": {"b0": 1, "b1": 30, "b2": 225, "index": "1",
                       "n": 30, "size": 256, "trivial": False,
                       "w1": "16", "w2": "32"}},
}
LEMMA_CHECKS = {"code-correlation": True, "class-coset-sums": True,
                "coordinate-identities": True}


def random_basis(ring, k, rng):
    while True:
        basis = rng.integers(0, ring.order, size=(k, k)).astype(np.int32)
        if len(spans.row_space(ring, basis)) == ring.order ** k:
            return basis


def halves_generator(ring, basis):
    half = len(basis) // 2
    columns = []
    for part in (basis[:half], basis[half:]):
        words = spans.row_space(ring, part)
        columns.append(words[(words != 0).any(axis=1)])
    return np.ascontiguousarray(np.concatenate(columns).T, dtype=np.int32)


def graph_operations(spec, ring, generator, path):
    known = GRAPH_CODES[spec]
    N, K, lam, mu = known["srg"]

    def analyze(tracer):
        return run_cli(["analyze", str(path)])

    def check_analyze(raw):
        code, out, _ = raw
        if code != 0:
            return Outcome(False, False, sha(f"{code}\n{out}"),
                           f"exit code {code}")
        report = json.loads(out)
        same = (report["profile"] == known["profile"]
                and report["modular_index"] == "1"
                and report["lemma_checks"] == LEMMA_CHECKS)
        return Outcome(same, not same, sha(out))

    def graph(tracer):
        return run_cli(["graph", str(path)])

    def check_graph(raw):
        code, out, _ = raw
        if code != 0:
            return Outcome(False, False, sha(f"{code}\n{out}"),
                           f"exit code {code}")
        params = f"N={N} K={K} lambda={lam} mu={mu} trivial=false"
        same = out.splitlines() == [f"measured:  {params}",
                                    f"predicted: {params}",
                                    "graph parameters: pass"]
        return Outcome(same, not same, sha(out))

    def equivalence(tracer):
        code = codes.build_code(ring, generator)
        return graphs.equivalence_check(code)

    def check_equivalence(report):
        cert = report.pds
        found = None if cert is None else (
            cert.group_size, cert.set_size, cert.lam, cert.mu)
        same = (report.two_weight and not report.omega_with_zero_submodule
                and found == known["srg"]
                and cert.srg_params().as_tuple() == known["srg"])
        return Outcome(same, not same, sha(repr(found)))

    return [Operation(f"analyze {spec} code", analyze, check_analyze),
            Operation(f"graph {spec} code", graph, check_graph),
            Operation(f"equivalence_check {spec} code", equivalence,
                      check_equivalence)]


def setup_graph_large(seed, outdir):
    rng = np.random.default_rng(seed)
    ctx = build_rings(GRAPH_CODES)
    ops = []
    for spec, known in GRAPH_CODES.items():
        ring = ctx[spec][0]
        generator = halves_generator(ring,
                                     random_basis(ring, known["k"], rng))
        path = outdir / f"graph-{spec}.code"
        path.write_text(codes.format_code_file(spec, generator))
        ops += graph_operations(spec, ring, generator, path)
    return ctx, ops


# -------------------------------------------------------- ring_suite

VERIFY_CHECKS = ("zero-set", "unit-invariance", "coset-sums",
                 "ideal-correlation", "sum-of-squares",
                 "word-correlation-k1", "word-correlation-k2")


def verify_lines(statuses):
    return [f"check {name}: {status}"
            for name, status in zip(VERIFY_CHECKS, statuses)]


def verify_operation(spec, flags, k2_status):
    expected = verify_lines(["pass"] * 6 + [k2_status])

    def run(tracer):
        return run_cli(["verify", spec, *flags])

    def check(raw):
        code, out, _ = raw
        if code != 0:
            return Outcome(False, False, sha(f"{code}\n{out}"),
                           f"exit code {code}")
        same = out.splitlines() == expected
        return Outcome(same, not same, sha(out))

    return Operation(" ".join(["verify", spec, *flags]), run, check)


def capped_verify_operation(spec):
    """verify at the default cap in a child process under an
    address-space limit (see capped.py).  Its contract for a too-large
    sweep is exit 0 with every check passing, or exit 2 with a one-line
    message.  The child is not traced: its time is operation time
    outside every layer."""
    expected = verify_lines(["pass"] * 7)

    def run(tracer):
        done = subprocess.run(
            [sys.executable, str(HERE / "capped.py"), "verify", spec],
            capture_output=True, text=True, timeout=CAPPED_TIMEOUT_S)
        return done.returncode, done.stdout, done.stderr

    def check(raw):
        code, out, err = raw
        if code == 0:
            same = out.splitlines() == expected
            return Outcome(same, not same, sha(f"{code}\n{out}"))
        lines = err.strip().splitlines()
        detail = f"exit code {code}: {lines[-1] if lines else ''}"
        return Outcome(code == 2 and len(lines) == 1, False,
                       sha(f"{code}\n{out}"), detail)

    name = f"verify {spec} (default cap, {CAPPED_LIMIT_MB} MiB address space)"
    return Operation(name, run, check)


def setup_ring_suite(seed, outdir):
    ctx = build_rings(["M2(GF(8))", "M2(GF(4))", "Z32"])
    ring, table = ctx["M2(GF(8))"]

    def identity(check_name):
        def run(tracer):
            getattr(homweight, check_name)(ring, table)
            return "pass"
        return Operation(f"ring M2(GF(8)) {check_name}", run,
                         lambda raw: Outcome(True, False, sha(raw)))

    ops = [identity("check_zero_set"),
           identity("check_coset_sums"),
           verify_operation(
               "M2(GF(4))", ["--cap", "65535", "--seed", str(seed)],
               f"pass (sampled, n=200, seed={seed})"),
           verify_operation("Z32", [], "pass"),
           capped_verify_operation("M2(GF(4))")]
    return ctx, ops


SETUPS = {
    "search_rank2": setup_search_rank2,
    "search_rank3_index1": setup_search_rank3_index1,
    "graph_large": setup_graph_large,
    "ring_suite": setup_ring_suite,
}
