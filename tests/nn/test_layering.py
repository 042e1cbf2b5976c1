"""``repro.nn`` is the training model only.

Serving runs the cache's plan (``repro.serving.plan``), which calls no
module, so nothing under ``src/repro/nn`` imports ``repro.serving`` or
branches on ``is_inference`` — at module level or inside a function.
"""

from __future__ import annotations

import ast
from pathlib import Path

NN = Path(__file__).resolve().parents[2] / "src" / "repro" / "nn"


def _offences(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if any(alias.name == "is_inference" for alias in node.names):
                found.append((node.lineno, "imports is_inference"))
        else:
            if isinstance(node, ast.Name) and node.id == "is_inference" or (
                isinstance(node, ast.Attribute) and node.attr == "is_inference"
            ):
                found.append((node.lineno, "reads is_inference"))
            continue
        for module in modules:
            if module == "repro.serving" or module.startswith("repro.serving."):
                found.append((node.lineno, f"imports {module}"))
    return found


def test_nn_neither_imports_serving_nor_reads_the_inference_flag():
    sources = sorted(NN.glob("*.py"))
    assert sources
    offences = {path.name: found for path in sources if (found := _offences(path))}
    assert offences == {}
