"""The exact-reading ledger, ``BENCH_probe.json``, holds the tree.

``tools/step_probe.py --record PR`` writes one row of every drift-free
reading of a tree: training and serving hashes, interpreter opcodes per
step and per served step, C crossings and line counts, keyed by PR,
parent commit and Python and NumPy versions.  Rows tagged ``"source":
"CHANGES.md"`` were back-filled from the readings those entries quote
(``null`` where none was quoted).

These tests read the file and never write it.  The newest row's serving
hashes, and its ``small_decode`` ``cc`` step and decode opcodes, must
equal what the tree reads now, so a change that moves one of them
records a row (and its CHANGES.md entry says so).  Opcode counts belong
to one Python and NumPy version, and to ``cc`` running native (NumPy's
vendored BLAS found): anywhere else, those fields are not compared.
The 30-step training hashes run only with ``--slow``.  Every reading is
taken in a fresh process, as ``--record`` takes it.
"""

import importlib.util
import json
import os
import re

import pytest

from repro.autograd import lower
from repro.autograd.lower import blas

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "step_probe", os.path.join(REPO, "tools", "step_probe.py")
)
step_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_probe)

with open(step_probe.LEDGER) as _f:
    ROWS = json.load(_f)
NEWEST = ROWS[-1]

needs_this_interpreter = pytest.mark.skipif(
    (NEWEST["python"], NEWEST["numpy"]) != (step_probe.PYTHON, step_probe.NUMPY),
    reason=f"opcodes recorded on Python {NEWEST['python']} and NumPy {NEWEST['numpy']}",
)
needs_native_cc = pytest.mark.skipif(
    not (lower.cc_available() and blas.available()),
    reason="cc would not run native here (no C toolchain or no NumPy BLAS symbol)",
)


@pytest.fixture(scope="module", autouse=True)
def _probe_env(tmp_path_factory):
    """The probe's processes import this tree and share one cold cache."""
    mp = pytest.MonkeyPatch()
    mp.setenv("PYTHONPATH", os.path.join(REPO, "src"))
    mp.setenv("REPRO_LOWER_CACHE", str(tmp_path_factory.mktemp("lower-cache")))
    yield
    mp.undo()


def test_rows_are_keyed_and_the_newest_was_recorded():
    fields = {"pr", "parent", "python", "numpy", "source", "hash", "serve_hash", "opcodes",
              "serve_opcodes", "lines"}
    prs = [row["pr"] for row in ROWS]
    assert prs == sorted(prs)
    for row in ROWS:
        assert fields <= set(row), row["pr"]
        assert re.fullmatch("[0-9a-f]{40}", row["parent"]), row["pr"]
        assert row["source"] in ("CHANGES.md", "step_probe --record"), row["pr"]
    assert NEWEST["source"] == "step_probe --record"
    assert set(NEWEST["serve_hash"]) == set(step_probe.SERVED)
    for rung in ("eager", "cc"):
        assert set(NEWEST["hash"][rung]) == set(NEWEST["opcodes"][rung]) == set(step_probe.SHAPES)


def test_newest_row_holds_the_trees_serving_bits():
    assert step_probe.read_hashes("--serve") == NEWEST["serve_hash"]


@needs_this_interpreter
@needs_native_cc
def test_newest_row_holds_the_trees_small_decode_opcodes():
    shape = ["--workload", "small_decode"]
    assert step_probe.read_opcodes(*shape) == {
        "small_decode": NEWEST["opcodes"]["cc"]["small_decode"]
    }
    decode = step_probe.read_serve_opcodes(*shape)["small_decode"]["decode"]
    assert decode == NEWEST["serve_opcodes"]["small_decode"]["decode"]


@pytest.mark.slow
def test_newest_row_holds_the_trees_training_bits():
    for rung in ("eager", "cc"):
        assert step_probe.read_hashes("--backend", rung) == NEWEST["hash"][rung], rung
