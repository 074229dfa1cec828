"""Every definition in ``src/mixtag`` has a caller outside the tests.

A public top-level function or class, or a public method of a public class,
must be named somewhere other than its own definition: in a module of
``src/mixtag`` (``__init__.py``'s re-exports do not count) or in the
benchmark under ``perfbench/``, whose tracer names the functions it wraps
in strings such as ``"crf.viterbi_lattice"``.  A private (``_``-prefixed)
top-level function or class, or a private method of any class, must be
named in a module of ``src/mixtag`` other than in its own definition;
dunder methods are exempt.  A public method or property of a public class
must also be read as an attribute outside its own class body, in a module
of ``src/mixtag`` or under ``perfbench/``, so that a name that merely
matches a local variable does not count.  A module-level name assigned in
``src/mixtag`` must be read in a module of ``src/mixtag`` or named under
``perfbench/``.  Code that only tests call belongs in the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mixtag"

# tests/test_acceptance.py imports these and is the fixed acceptance gate,
# so they stay in src although nothing else calls them
ALLOWED = {"log_partition", "average_scores"}


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def definitions():
    """(qualified name, name, node, class name or None) of each top-level
    function or class in src/mixtag and of each method of a class."""
    for path in sorted(SRC.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node.name, node, None
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, item, node.name


def names_in(tree: ast.AST, dotted_strings: bool, attributes_only: bool = False) -> Counter:
    """How often a tree refers to each name; with ``dotted_strings``, also
    the parts of string constants spelled like ``module.function``; with
    ``attributes_only``, not the plain variable names."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)+", node.value):
                names.update(node.value.split("."))
    return names


def src_names() -> Counter:
    names = Counter()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            names += names_in(parse(path), dotted_strings=False)
    return names


def perfbench_names() -> set[str]:
    names = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        names |= set(names_in(parse(path), dotted_strings=True))
    return names


def used_names() -> set[str]:
    return set(src_names()) | perfbench_names()


def uncalled(private: bool) -> list[str]:
    """The public or the private definitions that nothing outside their own
    definition names."""
    src, bench = src_names(), set() if private else perfbench_names()
    uncalled = []
    for qualified, name, node, owner in definitions():
        if private:
            if not is_private(name):
                continue
        elif name.startswith("_") or (owner or "").startswith("_") or name in ALLOWED:
            continue
        if src[name] <= names_in(node, dotted_strings=False)[name] and name not in bench:
            uncalled.append(qualified)
    return uncalled


def methods_unread_outside_their_class() -> list[str]:
    """The public methods and properties of public classes in src/mixtag
    that nothing reads as an attribute outside their own class body."""
    reads = Counter()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            reads += names_in(parse(path), dotted_strings=False, attributes_only=True)
    for path in (ROOT / "perfbench").rglob("*.py"):
        reads += names_in(parse(path), dotted_strings=True, attributes_only=True)
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in parse(path).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            inside = names_in(cls, dotted_strings=False, attributes_only=True)
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    if reads[item.name] <= inside[item.name]:
                        unread.append(f"{path.stem}.{cls.name}.{item.name}")
    return unread


def module_assignments():
    """(qualified name, name) of each name a statement at the top level of a
    module of src/mixtag, other than ``__init__.py``, assigns."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in parse(path).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                            yield f"{path.stem}.{name.id}", name.id


def src_reads() -> Counter:
    """How often the modules of src/mixtag, other than ``__init__.py``, read
    each name, as a variable or as an attribute."""
    names = Counter()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names[node.id] += 1
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names[node.attr] += 1
    return names


def unread_assignments() -> list[str]:
    reads, bench = src_reads(), perfbench_names()
    return [
        qualified
        for qualified, name in module_assignments()
        if not (name.startswith("__") and name.endswith("__"))
        and not reads[name] and name not in bench
    ]


def test_every_public_definition_has_a_caller():
    uncalled_public = uncalled(private=False)
    assert uncalled_public == [], f"only tests (or nothing) call {uncalled_public}"


def test_every_public_method_is_read_outside_its_class():
    unread = methods_unread_outside_their_class()
    assert unread == [], f"only their own class (or nothing) reads {unread}"


def test_every_private_definition_has_a_caller():
    uncalled_private = uncalled(private=True)
    assert uncalled_private == [], f"nothing in src/mixtag calls {uncalled_private}"


def test_every_module_level_name_is_read():
    unread = unread_assignments()
    assert unread == [], f"nothing in src/mixtag or perfbench reads {unread}"


def test_allowed_names_are_acceptance_imports_without_another_caller():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert ALLOWED <= imported
    assert not ALLOWED & used_names()
