"""Every name the benchmark under ``perfbench/`` takes from ``mixtag`` exists,
and every call the workloads make still binds to its signature.

The tracer wraps each ``"module.function"`` key of ``TARGETS`` in
``perfbench/tracer.py`` with ``getattr`` on ``mixtag.<module>``, so one
missing name crashes every traced run; the workloads call module functions
such as ``crf.build_lattice`` directly.  The tracer's count functions read
attributes (``token_count``, ``T``, ...) off each traced call's arguments
and result, and a missing one crashes the run as well.  The perfbench files
and ``src/mixtag`` are read with ``ast``, not imported, so this check runs
in milliseconds.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "mixtag"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def tracer_targets_dict() -> ast.Dict:
    for node in parse("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return node.value
    raise AssertionError("perfbench/tracer.py assigns no TARGETS dict")


def tracer_targets() -> list[str]:
    return [ast.literal_eval(key) for key in tracer_targets_dict().keys]


def tracer_attributes() -> set[str]:
    """Every attribute that ``TARGETS`` reads, in its entries and in the
    module-level helpers they name, and the helpers those name."""
    helpers = {n.name: n for n in parse("tracer.py").body if isinstance(n, ast.FunctionDef)}
    read, todo, seen = set(), [tracer_targets_dict()], set()
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in helpers and node.id not in seen:
                seen.add(node.id)
                todo.append(helpers[node.id])
    return read


def src_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def class_attributes() -> dict[str, set[str]]:
    """The names each class in ``src/mixtag`` defines: its methods and
    properties, its class-level fields and the ``self.<name>`` it assigns."""
    classes = {}
    for tree in src_modules().values():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            names = classes.setdefault(cls.name, set())
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            names.update(
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            )
    return classes


def direct_reads() -> list[tuple[str, str, str]]:
    """(target, class, attribute) for each attribute that a ``TARGETS``
    entry reads straight off its traced call's argument ``a[i]`` or result
    ``r``, where ``src/mixtag`` annotates that parameter or the return with
    a plain class name."""
    modules = src_modules()
    reads = []
    for key, value in zip(tracer_targets(), tracer_targets_dict().values):
        module, _, name = key.partition(".")
        fn = next(n for n in modules[module].body if isinstance(n, ast.FunctionDef) and n.name == name)
        for fn_lambda in (n for n in ast.walk(value) if isinstance(n, ast.Lambda)):
            args, result = (arg.arg for arg in fn_lambda.args.args)
            for node in ast.walk(fn_lambda.body):
                if not isinstance(node, ast.Attribute):
                    continue
                of = node.value
                if isinstance(of, ast.Name) and of.id == result:
                    annotation = fn.returns
                elif (isinstance(of, ast.Subscript) and isinstance(of.value, ast.Name)
                      and of.value.id == args and isinstance(of.slice, ast.Constant)):
                    annotation = fn.args.args[of.slice.value].annotation
                else:
                    continue
                if isinstance(annotation, ast.Name):
                    reads.append((key, annotation.id, node.attr))
    return reads


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


def test_every_attribute_the_tracer_reads_is_defined():
    read = tracer_attributes()
    # guards the check below against passing on an empty scan
    assert {"token_count", "state_base", "T"} <= read
    defined = set().union(*class_attributes().values())
    assert sorted(read - defined) == []


def test_tracer_reads_each_attribute_off_a_class_that_defines_it():
    reads = direct_reads()
    # guards the check below against passing on an empty list
    assert ("trainer.objective_and_gradient", "IndexedCorpus", "token_count") in reads
    assert ("crf.load_model", "Model", "index") in reads
    classes = class_attributes()
    assert [read for read in reads if read[2] not in classes[read[1]]] == []
