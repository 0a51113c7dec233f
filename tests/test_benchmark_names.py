"""Every per-layer metric of BENCHMARK.json that times or counts calls
of a function names a module-level function of that layer, so that the
benchmark's tracer finds it.  The file is only read."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
QUANTITIES = ("calls", "self_s", "total_s", "errors")
TRACED = sorted({tuple(m["name"].split(".")[:2]) for m in SPEC["per_layer"]
                 if m["name"].count(".") == 2
                 and m["name"].rpartition(".")[2] in QUANTITIES})


def test_some_metrics_name_functions():
    assert ("homweight", "correlation_vectors_lhs") in TRACED


@pytest.mark.parametrize("layer,name", TRACED)
def test_per_layer_metric_names_a_function(layer, name):
    module = importlib.import_module(f"frobcode.{layer}")
    function = getattr(module, name, None)
    assert inspect.isfunction(function)
    assert function.__module__ == module.__name__
