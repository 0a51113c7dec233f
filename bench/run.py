"""frobcode benchmark: certified workloads, timed end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  Each workload runs in its own
child process, one operation after another (a closed loop with one
client), and every operation's output is checked.  Workloads run one
at a time.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s      median over fresh child processes (at least
               SETUP_MIN_SAMPLES, more while they take under
               SETUP_BUDGET_S in all) of the time to start, import
               frobcode and build every ring the workload uses with its
               weight table
  run_s        median over passes of one pass's operation time
  peak_rss_mb  peak resident set of the workload's child process
  pass_frac    operations that met their contract over operations run
--trace 1 prints the per-layer metrics of BENCHMARK.json from a traced
run (see tracer.py) and writes the per-layer table and the spans to
.bench_out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("search_rank2", "search_rank3_index1", "graph_large",
             "ring_suite")
# Set-up samples per run: sub-second set-ups get more samples.
SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 15
SETUP_BUDGET_S = 4.0
# BLAS and OpenMP threads per child: at most nproc, and one keeps runs
# steady on a shared machine.
THREADS = "1"


class BenchError(Exception):
    pass


def environment():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": model, "threads": int(THREADS)}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, seed, seconds, trace, setup_only=False):
    """Start a workload child; return (set-up seconds, result or None)."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(OUT)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    with proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if ready != "ready\n" or code != 0:
        raise BenchError(f"{workload} child exited with code {code} "
                         f"before finishing")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tally(passes):
    ops = [r for p in passes for r in p["ops"]]
    failed = [r for r in ops if not r["ok"]]
    for r in failed:
        reason = (r["error"] or "output check").strip().splitlines()[-1]
        print(f"  failed: {r['op']}: {reason}")
    return len(ops), len(failed), not any(r["wrong"] for r in ops)


def pass_seconds(passes, traced):
    return [sum(r["seconds"] for r in p["ops"]) for p in passes
            if p["traced"] == traced]


def end_to_end(workload, seed, seconds, metrics):
    setup_s, result = spawn(workload, seed, seconds, 0)
    samples = [setup_s]
    while len(samples) < SETUP_MIN_SAMPLES or (
            sum(samples) < SETUP_BUDGET_S
            and len(samples) < SETUP_MAX_SAMPLES):
        samples.append(spawn(workload, seed, seconds, 0, True)[0])
    passes = result["passes"]
    attempted, failed, correct = tally(passes)
    values = {
        "setup_s": statistics.median(samples),
        "run_s": statistics.median(pass_seconds(passes, False)),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_frac": (attempted - failed) / attempted,
    }
    print(f"{workload}: {len(passes)} passes of {len(passes[0]['ops'])} "
          f"operations; {failed} of {attempted} failed (fail_frac "
          f"{failed / attempted:.3f}); set-up samples "
          + ", ".join(f"{s:.3f}" for s in samples) + " s")
    return attempted, failed, correct, pick(metrics, values)


def combine(parts, weights):
    """Weighted sum of (stats, counts) pairs."""
    stats, counts = {}, {}
    for (s, c), w in zip(parts, weights):
        for label, entry in s.items():
            total = stats.setdefault(label, [0, 0.0, 0.0, 0])
            for i, value in enumerate(entry):
                total[i] += w * value
        for name, value in c.items():
            counts[name] = counts.get(name, 0) + w * value
    return stats, counts


def layer_values(result):
    """Per-layer values for set-up plus one traced pass (the mean over
    the traced passes); also returns the two parts' stats apart."""
    traced = [p["stats"] for p in result["passes"] if p["traced"]]
    setup = result["setup"]["stats"]
    one_pass = combine(traced, [1 / len(traced)] * len(traced))
    stats, counts = combine([setup, one_pass], [1, 1])
    values = {}
    for label, (calls, self_s, total_s, errors) in stats.items():
        values[f"{label}.calls"] = calls
        values[f"{label}.self_s"] = self_s
        values[f"{label}.total_s"] = total_s
        values[f"{label}.errors"] = errors
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            e[1] for label, e in stats.items()
            if label.startswith(layer + "."))
    values.update(counts)
    values["duality.useful_ratio"] = ratio(
        counts["duality.code_words"], counts["duality.vectors_enumerated"])
    values["search.hit_ratio"] = ratio(counts["search.two_weight_hits"],
                                       counts["search.candidates"])
    traced_s = statistics.median(pass_seconds(result["passes"], True))
    untraced_s = statistics.median(pass_seconds(result["passes"], False))
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.spans"] = sum(e[0] for e in stats.values())
    return values, {"set-up": (setup[0], result["setup"]["seconds"]),
                    "one traced pass": (one_pass[0], traced_s)}


def ratio(num, den):
    return num / den if den else 0.0


def layer_table(workload, parts, values):
    lines = [f"# {workload}: tracing overhead "
             f"{values['trace.overhead_s']:+.3f} s per pass "
             f"(traced run_s minus untraced run_s)"]
    for phase, (stats, seconds) in parts.items():
        lines += [f"## {phase}: {seconds:.3f} s traced; share is of that",
                  f"{'function':44} {'calls':>9} {'self_s':>9} {'share':>7} "
                  f"{'total_s':>9} {'share':>7} {'errors':>6}"]
        rows = sorted(((e[1], label, e) for label, e in stats.items()
                       if e[0]), reverse=True)
        for self_s, label, (calls, _, total_s, errors) in rows:
            lines.append(f"{label:44} {calls:>9.0f} {self_s:>9.4f} "
                         f"{self_s / seconds:>7.1%} {total_s:>9.4f} "
                         f"{total_s / seconds:>7.1%} {errors:>6.0f}")
    return "\n".join(lines) + "\n"


def per_layer(workload, seed, seconds, metrics):
    _, result = spawn(workload, seed, seconds, 1)
    attempted, failed, correct = tally(result["passes"])
    values, parts = layer_values(result)
    table = layer_table(workload, parts, values)
    (OUT / f"{workload}.layers.txt").write_text(table)
    print(table, end="")
    print(f"spans: {OUT / (workload + '.spans.tsv.gz')}")
    return attempted, failed, correct, pick(metrics, values)


def pick(metrics, values):
    picked = {}
    for m in metrics:
        if m["name"] not in values:
            raise BenchError(f"no value for metric {m['name']}")
        picked[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return picked


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed at least 0")
    if not (SRC / "frobcode" / "__init__.py").is_file():
        print(f"error: frobcode sources not found under {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    env = environment()
    (OUT / "environment.json").write_text(json.dumps(env, indent=2) + "\n")
    print("environment: " + json.dumps(env))

    measure = per_layer if args.trace else end_to_end
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    results = {}
    try:
        for workload in chosen:
            a, f, c, values = measure(workload, args.seed, args.seconds,
                                      metrics)
            attempted, failed = attempted + a, failed + f
            correct = correct and c
            for name, v in values.items():
                print(f"{workload} {name} = {v['value']:.6g} {v['unit']}")
            results[workload] = values
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        metrics_out = results[args.workload]
    else:
        metrics_out = {f"{w}.{name}": v for w, values in results.items()
                       for name, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
