"""Every public definition in ``src/mixtag`` has a caller outside the tests.

A public top-level function or class, or a public method of a public class,
must be named somewhere other than its own definition: in a module of
``src/mixtag`` (``__init__.py``'s re-exports do not count) or in the
benchmark under ``perfbench/``, whose tracer names the functions it wraps
in strings such as ``"crf.viterbi_lattice"``.  Code that only tests call
belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mixtag"

# tests/test_acceptance.py imports these and is the fixed acceptance gate,
# so they stay in src although nothing else calls them
ALLOWED = {"log_partition", "average_scores"}


def public_definitions():
    """(qualified name, name) of each public definition in src/mixtag."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def names_in(path: Path, dotted_strings: bool) -> set[str]:
    """The names a module refers to; with ``dotted_strings``, also the parts
    of string constants spelled like ``module.function``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif dotted_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)+", node.value):
                names.update(node.value.split("."))
    return names


def used_names() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            names |= names_in(path, dotted_strings=False)
    for path in (ROOT / "perfbench").rglob("*.py"):
        names |= names_in(path, dotted_strings=True)
    return names


def test_every_public_definition_has_a_caller():
    used = used_names()
    uncalled = [q for q, name in public_definitions() if name not in used and name not in ALLOWED]
    assert uncalled == [], f"only tests (or nothing) call {uncalled}"


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
