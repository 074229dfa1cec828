"""Training and tagging reach ``crf`` internals only through its batch type.

The pair format and the weight layout live in ``crf.Compiled``; ``trainer``
and ``tagging`` take from ``crf`` no private name other than the two
batched recursions.  The modules are read with ``ast``, not imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mixtag"

RECURSIONS = {"_forward_backward", "_viterbi"}


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
