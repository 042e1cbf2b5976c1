"""``benchmarks/`` reproduces the paper and nothing else.

Three jobs, three directories: ``bench/`` times this repo's machinery
(interleaved, speed-normalised, refereed by BENCHMARK.json), ``tests/``
asserts its contracts, ``benchmarks/`` regenerates the paper's tables,
figures and ablations — shape, not time.  This guard keeps a fourth job
from growing back there: every benchmark module says which part of the
paper it reproduces, and none of them writes a result file.  AST only;
nothing under ``benchmarks/`` is imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
PAPER_ANCHOR = re.compile(r"(Figure|Table) \d|§\d")


def _writes(call: ast.Call) -> bool:
    """``open(..., "w" / "a" / "x" / "+")``, mode positional or keyword."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(
        not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
        for m in modes
    )


def test_benchmarks_reproduce_the_paper_and_write_nothing():
    failures = []
    modules = sorted(BENCHMARKS.glob("*.py"))
    assert modules, f"no benchmark modules under {BENCHMARKS}"
    for path in modules:
        tree = ast.parse(path.read_text())
        doc = ast.get_docstring(tree) or ""
        if path.name.startswith("test_") and not PAPER_ANCHOR.search(doc):
            failures.append(
                f"{path.name}: the module docstring cites no Figure N / Table N "
                "/ §N — timing this repo's own machinery belongs in bench/, "
                "asserting its contracts in tests/"
            )
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and _writes(node):
                failures.append(f"{path.name}:{node.lineno} opens a file for writing")
            for name in names:
                if name.split(".")[0] in ("json", "tempfile"):
                    failures.append(
                        f"{path.name}:{node.lineno} imports {name}: benchmarks "
                        "print, they do not write result files"
                    )
    assert not failures, "\n".join(failures)
