"""The package's public surface has no dead ends.

Every public module-level function or class of ``frobcode`` is used
somewhere: it is referenced by other code of the package, exported in
``frobcode.__all__``, or named by a per-layer metric of BENCHMARK.json,
whose tracer finds functions by name.  A reference inside the
definition itself, as in a recursive call, does not count, and neither
does an import.  Every name in ``__all__`` resolves."""

import ast
import json
from pathlib import Path

import frobcode

PACKAGE = Path(frobcode.__file__).resolve().parent
SPEC = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _used_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def surface(package=PACKAGE):
    """(definitions, references): the public module-level functions and
    classes as (module, name) pairs, and for each name the
    (module, name) pairs of the definitions that use it, with None for
    a use in module-level code."""
    definitions = []
    references = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                if not owner.startswith("_"):
                    definitions.append((module, owner))
            for name in _used_names(node):
                references.setdefault(name, set()).add((module, owner))
    return definitions, references


def unused(definitions, references, exported, metrics):
    """The definitions with no use by another definition or statement,
    no place in exported and no metric of their module and name."""
    return [(module, name) for module, name in definitions
            if not references.get(name, set()) - {(module, name)}
            and name not in exported
            and not any(metric.startswith(f"{module}.{name}.")
                        for metric in metrics)]


def test_every_public_definition_has_a_use():
    definitions, references = surface()
    assert ("spans", "span") in definitions
    metrics = [m["name"] for m in SPEC["per_layer"]]
    assert unused(definitions, references, set(frobcode.__all__),
                  metrics) == []


def test_every_exported_name_resolves():
    assert len(set(frobcode.__all__)) == len(frobcode.__all__)
    missing = [name for name in frobcode.__all__
               if not hasattr(frobcode, name)]
    assert missing == []


def test_an_uncalled_helper_is_reported(tmp_path):
    (tmp_path / "layer.py").write_text(
        "def helper(x):\n    return helper(x - 1) if x else 0\n\n\n"
        "def used():\n    return 1\n\n\nVALUE = used()\n")
    definitions, references = surface(tmp_path)
    assert unused(definitions, references, set(), []) \
        == [("layer", "helper")]
    assert unused(definitions, references, {"helper"}, []) == []
    assert unused(definitions, references, set(),
                  ["layer.helper.calls"]) == []
