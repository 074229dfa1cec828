"""Every name the benchmark under ``perfbench/`` takes from ``mixtag`` exists.

The tracer wraps each ``"module.function"`` key of ``TARGETS`` in
``perfbench/tracer.py`` with ``getattr`` on ``mixtag.<module>``, so one
missing name crashes every traced run; the workloads call module functions
such as ``crf.build_lattice`` directly.  Both files are read with ``ast``,
not imported, so this check runs in milliseconds.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def tracer_targets() -> list[str]:
    for node in parse("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracer.py assigns no TARGETS dict")


def workload_names() -> list[str]:
    """``module.name`` of each attribute that workloads.py reads off a
    ``mixtag`` module it imports."""
    tree = parse("workloads.py")
    modules = {}  # local name -> mixtag module
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mixtag":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "mixtag":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"mixtag.{alias.name}"
    return sorted({
        f"{modules[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


def missing(dotted_names) -> list[str]:
    """The ``package.module.name`` spellings whose name does not exist."""
    gone = []
    for dotted in dotted_names:
        module, _, name = dotted.rpartition(".")
        if not hasattr(importlib.import_module(module), name):
            gone.append(dotted)
    return gone


def test_workloads_use_the_five_layer_modules():
    # guards the name scan below against passing on an empty list
    used = {name.rpartition(".")[0] for name in workload_names()}
    assert {f"mixtag.{m}" for m in ("corpus", "crf", "features", "tagging", "trainer")} <= used


def test_every_tracer_target_exists():
    targets = tracer_targets()
    assert "crf.viterbi" in targets
    assert missing(f"mixtag.{target}" for target in targets) == []


def test_every_workload_name_exists():
    assert missing(workload_names()) == []
