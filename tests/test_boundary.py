"""Training and tagging reach ``crf`` internals only through its batch type.

The pair format and the weight layout live in ``crf.Compiled``; ``trainer``
and ``tagging`` take from ``crf`` no private name other than the two
batched recursions.  The parameter layout is built and sized in ``crf``
alone: no other module constructs a ``FeatureIndex`` or reads its label
count, and none reads a batch's pair arrays or the group map and scale of
its grouped space.  No module, ``crf`` included, imports a base64
codec: a model file holds its row ids and weights as raw bytes.  The
modules are read with ``ast``, not imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mixtag"

RECURSIONS = {"_forward_backward", "_viterbi"}
BATCH_ARRAYS = {"rows", "cols", "group", "scale"}
OTHER_MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "crf")


def private_crf_imports(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in {(1, "crf"), (0, "mixtag.crf")}
        for alias in node.names
        if alias.name.startswith("_")
    }


@pytest.mark.parametrize("module", ["trainer", "tagging"])
def test_only_the_recursions_are_imported_privately(module):
    assert private_crf_imports(module) <= RECURSIONS


def layout_uses(module: str) -> list[str]:
    """Each ``FeatureIndex(...)`` call and ``.n_labels`` read in a module."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "FeatureIndex":
                uses.append(f"FeatureIndex( at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "n_labels":
            uses.append(f".n_labels at line {node.lineno}")
    return uses


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_crf_builds_and_sizes_the_layout(module):
    assert layout_uses(module) == []


def test_layout_check_sees_crf():
    # the check finds what it looks for where it is allowed
    assert any(use.startswith("FeatureIndex(") for use in layout_uses("crf"))
    assert any(use.startswith(".n_labels") for use in layout_uses("crf"))


def batch_array_reads(module: str) -> list[str]:
    """Each read of a ``BATCH_ARRAYS`` attribute in a module."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return [
        f".{node.attr} at line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in BATCH_ARRAYS
    ]


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_crf_reads_the_pairs_and_the_groups(module):
    assert batch_array_reads(module) == []


def test_batch_array_check_sees_crf():
    assert {use.split()[0] for use in batch_array_reads("crf")} == {f".{name}" for name in BATCH_ARRAYS}


CODECS = {"base64", "binascii"}


def codec_imports_in(source: str) -> set[str]:
    """The base64 codec modules that a module's source imports."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported & CODECS


def codec_imports(module: str) -> set[str]:
    return codec_imports_in((SRC / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", OTHER_MODULES)
def test_only_crf_imports_a_base64_codec(module):
    assert codec_imports(module) == set()


def test_codec_check_sees_crf():
    # crf, which held the codec up to format v3, now imports none either;
    # the check still finds each spelling of a codec import where one is.
    assert codec_imports("crf") == set()
    assert codec_imports_in("import binascii") == {"binascii"}
    assert codec_imports_in("import base64.x as b") == {"base64"}
    assert codec_imports_in("from base64 import b64decode") == {"base64"}
    assert codec_imports_in("from .base64 import x") == set()
