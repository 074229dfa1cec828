"""Every name the benchmark under ``perfbench/`` takes from ``mixtag`` exists,
and every call the workloads make still binds to its signature.

The tracer wraps each ``"module.function"`` key of ``TARGETS`` in
``perfbench/tracer.py`` with ``getattr`` on ``mixtag.<module>``, so one
missing name crashes every traced run; the workloads call module functions
such as ``crf.build_lattice`` directly.  Both files are read with ``ast``,
not imported, so this check runs in milliseconds.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def tracer_targets() -> list[str]:
    for node in parse("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracer.py assigns no TARGETS dict")


def mixtag_modules(tree: ast.Module) -> dict[str, str]:
    """The ``mixtag`` modules a file imports, by their local names."""
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mixtag":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "mixtag":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"mixtag.{alias.name}"
    return modules


def workload_names() -> list[str]:
    """``module.name`` of each attribute that workloads.py reads off a
    ``mixtag`` module it imports."""
    tree = parse("workloads.py")
    modules = mixtag_modules(tree)
    return sorted({
        f"{modules[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


def workload_calls() -> list[tuple[str, ast.Call, list[ast.expr]]]:
    """(``module.name``, call, positional arguments) of each call in
    workloads.py of a function off a ``mixtag`` module, counting
    ``timed(fn, *args)`` as the call ``fn(*args)`` that it makes."""
    tree = parse("workloads.py")
    modules = mixtag_modules(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = node.func, node.args
        if isinstance(fn, ast.Name) and fn.id == "timed" and args:
            fn, args = args[0], args[1:]
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id in modules:
            calls.append((f"{modules[fn.value.id]}.{fn.attr}", node, args))
    return calls


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


def test_every_workload_call_binds():
    calls = workload_calls()
    # guards the check below against passing on an empty list
    assert ("mixtag.tagging.tag_sentence", 3) in {(name, len(args)) for name, _, args in calls}
    assert ("mixtag.trainer.train", 4) in {(name, len(args)) for name, _, args in calls}
    unbound = []
    for name, call, args in calls:
        where = f"workloads.py:{call.lineno} {name}"
        starred = any(isinstance(arg, ast.Starred) for arg in args)
        assert not starred and all(k.arg for k in call.keywords), f"{where}: unpacked arguments"
        module, _, attr = name.rpartition(".")
        signature = inspect.signature(getattr(importlib.import_module(module), attr))
        try:
            signature.bind(*args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert unbound == []
