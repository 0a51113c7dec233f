"""Span tracer that times the frobcode layers from outside the package.

Every public function of the layer modules is wrapped, and the wrapper
is bound wherever the package looks the function up: in the defining
module, in every module that imported it by name (``search.build_code``
and ``duality.build_code`` are patched separately), and inside
module-level tuples such as ``homweight.IDENTITY_CHECKS``.  Code outside
the package must call through the module attribute (``cli.main``), so
that it reaches the wrapper.  The CLI's public function is its entry
point ``main``; the subcommand handlers it dispatches to are its own
formatting work and stay inside main's span.

A span is one call of a wrapped function.  Its self time is its
duration minus the durations of the spans it called directly; its
total time is its duration, counted once for recursive calls.  Spans
are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import time

LAYERS = ("rings", "cyclotomic", "homweight", "spans", "codes", "graphs",
          "duality", "search", "cli")


def _dual_counts(args, kwargs, report):
    code = args[0] if args else kwargs["code"]
    return {"duality.vectors_enumerated": code.ring.order ** code.n,
            "duality.code_words": report.dual_size}


def _search_counts(args, kwargs, records):
    hits = sum(rec.classification == "two-weight" for rec in records)
    return {"search.candidates": len(records), "search.two_weight_hits": hits}


# Work counts computed from a successful call's inputs and result.
COUNT_HOOKS = {
    "duality.dual_pipeline": _dual_counts,
    "codes.build_code": lambda a, k, code: {
        "codes.build_code.messages": code.ring.order ** code.k},
    "graphs.measure_srg": lambda a, k, srg: {
        "graphs.measure_srg.macs": srg.vertices ** 3},
    "search.search_modular_codes": _search_counts,
}
# Modules whose public functions are a fixed list.
PUBLIC = {"cli": ("main",)}
COUNT_NAMES = ("duality.vectors_enumerated", "duality.code_words",
               "codes.build_code.messages", "graphs.measure_srg.macs",
               "search.candidates", "search.two_weight_hits")


class Tracer:
    """Wraps the layer functions while installed and records spans."""

    def __init__(self):
        self.op = "setup"
        self.spans = []
        self.counts = {}
        self._stats = {}
        self._stack = []
        self._ids = itertools.count(1)
        self._saved = []
        self._wrappers = {}
        modules = [importlib.import_module(f"frobcode.{m}") for m in LAYERS]
        self._namespaces = modules + [importlib.import_module("frobcode")]
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for name, obj in vars(module).items():
                if layer in PUBLIC and name not in PUBLIC[layer]:
                    continue
                if (not name.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None)
                        == module.__name__):
                    label = f"{layer}.{name}"
                    self._wrappers[id(obj)] = (obj, self._wrap(label, obj))
        self.take()

    def _wrap(self, label, fn):
        stack = self._stack
        spans = self.spans
        ids = self._ids
        entry = self._stats[label] = [0, 0, 0.0, 0.0, 0]
        hook = COUNT_HOOKS.get(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # entry: calls, active (recursion depth), self s, total s,
            # errors; a frame: start, time in child spans, span id
            parent = stack[-1][2] if stack else None
            frame = [clock(), 0.0, next(ids)]
            stack.append(frame)
            entry[1] += 1
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                entry[0] += 1
                entry[1] -= 1
                entry[2] += duration - frame[1]
                if not entry[1]:
                    entry[3] += duration
                entry[4] += failed
                spans.append((self.op, frame[2], parent, label, frame[0],
                              end, failed))
            if hook is not None:
                for name, value in hook(args, kwargs, result).items():
                    self.counts[name] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def _substitute(self, value):
        if isinstance(value, tuple):
            items = tuple(self._substitute(v) for v in value)
            changed = any(a is not b for a, b in zip(items, value))
            return items if changed else value
        found = self._wrappers.get(id(value))
        if found is not None and found[0] is value:
            return found[1]
        return value

    def install(self):
        """Bind the wrappers in every layer module."""
        if self._saved:
            return
        for module in self._namespaces:
            for name, value in list(vars(module).items()):
                new = self._substitute(value)
                if new is not value:
                    self._saved.append((module, name, value))
                    setattr(module, name, new)

    def remove(self):
        """Restore the original bindings."""
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def take(self):
        """Return the per-function stats and the counts gathered since
        the last call, and start again from zero.  Stats map a label to
        [calls, self seconds, total seconds, errors]."""
        stats = {}
        for label, entry in self._stats.items():
            stats[label] = [entry[0], entry[2], entry[3], entry[4]]
            entry[0] = entry[2] = entry[3] = entry[4] = 0
        counts = dict(self.counts)
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        return stats, counts
