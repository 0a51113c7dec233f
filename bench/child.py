"""One workload in its own process (started by run.py).

    python3 bench/child.py --workload W --seed N --seconds S --trace 0|1 --out DIR [--setup-only]

Prints ``ready`` once set-up is done, which is how run.py times
set-up from outside.  Then it runs the workload's operations in passes
until --seconds have passed (at least one pass), and prints one JSON
line with every operation's outcome and time and the process's peak
resident set.  With --trace 1, set-up is traced and passes alternate
untraced and traced, starting untraced; the per-function stats go into
the JSON line and the spans into DIR/<workload>.spans.tsv.gz.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

# The process ends itself if it is still running this long after
# --seconds: time for set-up and for the last pass, which may start
# just before --seconds are up.  It stops a hung workload.
DEADLINE_AFTER_S = 160


def run_pass(ops, tracer):
    if tracer is not None:
        tracer.install()
    results = []
    try:
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            start = time.perf_counter()
            try:
                raw = op.run(tracer)
                error = None
            except Exception:  # noqa: BLE001 - counted as failed
                raw, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - start
            outcome = None if error else op.check(raw)
            results.append({
                "op": op.name, "seconds": elapsed,
                "ok": bool(outcome and outcome.ok),
                "wrong": bool(outcome and outcome.wrong),
                "digest": outcome.digest if outcome else None,
                "error": error or (outcome.detail if outcome else None)})
    finally:
        if tracer is not None:
            tracer.remove()
    stats = tracer.take() if tracer is not None else None
    return {"traced": tracer is not None, "ops": results, "stats": stats}


def mark_digest_drift(passes):
    """An operation whose output differs from its first pass's output
    (traced or not) has a wrong output."""
    first = {r["op"]: r["digest"] for r in passes[0]["ops"]}
    for p in passes[1:]:
        for r in p["ops"]:
            if r["digest"] != first[r["op"]]:
                r["ok"] = False
                r["wrong"] = True
                r["error"] = "output differs from the first pass"


def write_spans(path, spans):
    with gzip.open(path, "wt", compresslevel=1) as handle:
        handle.write("op\tid\tparent\tfunction\tstart_s\tend_s\terror\n")
        handle.writelines(
            "%s\t%d\t%s\t%s\t%.9f\t%.9f\t%d\n"
            % (op, sid, "" if parent is None else parent, label, start, end,
               failed)
            for op, sid, parent, label, start, end, failed in spans)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    signal.alarm(int(args.seconds) + DEADLINE_AFTER_S)
    outdir = Path(args.out)

    setup_start = time.perf_counter()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    ctx, ops = workloads.SETUPS[args.workload](args.seed, outdir)
    setup = {"seconds": time.perf_counter() - setup_start}
    if tracer is not None:
        tracer.remove()
        setup["stats"] = tracer.take()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    kinds = (None, tracer) if tracer is not None else (None,)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        for kind in kinds:
            passes.append(run_pass(ops, kind))
    mark_digest_drift(passes)

    if tracer is not None:
        write_spans(outdir / f"{args.workload}.spans.tsv.gz", tracer.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup": setup, "passes": passes,
                      "peak_rss_mb": peak_kb / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
