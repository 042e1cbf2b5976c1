#!/usr/bin/env python3
"""The drift-free readings of a step: its bits and its Python.

All are exact — no wall clock — so they compare across commits and
machines (opcode counts across one Python and NumPy version):

``--hash``
    sha256 of a 30-step, seed-1 trajectory — every step's loss, then
    every parameter and both Adam moments — per ``bench/`` workload
    shape.  Equal on two commits means no training bit moved.

``--hash --serve``
    sha256 of the logits of each workload's served model (int8 experts
    for ``dp2_int8``): one prefill per slot, then eight decode steps
    over every slot.  Equal on two commits means no serving bit moved.

``--opcodes``
    Interpreter opcodes executed by one ``train_step`` (``sys.settrace``
    with ``f_trace_opcodes``), after three untraced warm-up steps, with
    the functions that executed most of them.  This is the Python a step
    still runs between its native kernels.

``--opcodes --serve``
    The same count for serving: one prefill at the workload's middle
    prompt length, then one decode step over all its slots (each holding
    such a prompt), after one untraced round of both.  Each line also
    gives the ``lower_direct_calls`` it made: its crossings into the
    kernel table's C.

``--lowering``
    Per training shape, the ``cc`` step graph's replay records after
    three steps: how many run native (in C), how many are lowered (off
    the interpreter) and how many there are — ``lower report``'s two
    coverages on the bench's own model.

``--record PR``
    Every reading above — ``--hash`` on ``eager`` and ``cc``, ``--hash
    --serve``, ``--opcodes`` on ``eager``, ``replay`` and ``cc`` at steps
    3-5, ``--opcodes --serve``, ``--lowering`` — plus the kernel table's
    entry and C symbol counts, the tier-1 test ids and the ``src/`` and
    ``tests/`` line counts, as one row of the committed ledger
    ``BENCH_probe.json``, keyed by the PR number, the parent commit
    (``HEAD``: record on the uncommitted change) and the Python and NumPy
    versions.  A row with the same key is replaced; any other is
    appended.  ``tests/utils/test_probe_ledger.py`` holds the tree to the
    newest row, so a change that moves a reading records a row.

The trainer is ``bench/workloads.build_trainer`` and the served model
``bench/workloads.build_model`` (imported, never modified), single
process (``dp_world=0``), so a probe reads the same model, data and
learning rate the benchmark times.

    PYTHONPATH=src python tools/step_probe.py --hash
    PYTHONPATH=src python tools/step_probe.py --opcodes --workload small_decode --top 12
    PYTHONPATH=src python tools/step_probe.py --opcodes --serve
    PYTHONPATH=src python tools/step_probe.py --hash --serve
    PYTHONPATH=src python tools/step_probe.py --lowering
    PYTHONPATH=src python tools/step_probe.py --record N
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from typing import Callable, List, Optional, Tuple

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: ``dp2_int8`` trains ``ref_prefill``'s model; single-process it is the same run.
SHAPES = ("ref_prefill", "small_decode", "skew_queue")
#: ... but serves it with int8 experts.
SERVED = SHAPES + ("dp2_int8",)
HASH_STEPS = 30
SERVE_HASH_STEPS = 8
WARMUP_STEPS = 3
SEED = 1
LEDGER = os.path.join(REPO, "BENCH_probe.json")
PYTHON = "%d.%d" % sys.version_info[:2]
NUMPY = np.__version__


def _workloads():
    bench = os.path.join(REPO, "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    return workloads


def build_trainer(name: str, backend: str):
    w = _workloads()
    return w.build_trainer(w.WORKLOADS[name], SEED, backend, dp_world=0)


def count_opcodes(fn: Callable[[], object]) -> Tuple[int, Counter]:
    """Run ``fn()`` counting every interpreter opcode it executes.

    Returns ``(total, per_function)``; ``per_function`` is keyed by
    ``"file.py:function"``.  Deterministic for deterministic code: the
    count is a property of the bytecode path taken, not of time.
    """
    # Keyed by (file, function): hashing a code object re-hashes its
    # fields on every opcode event and makes a traced step 1.6x slower.
    per_code: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            code = frame.f_code
            per_code[(code.co_filename, code.co_name)] += 1
        return local

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(previous)
    per_function: Counter = Counter()
    for (filename, function), n in per_code.items():
        per_function[f"{os.path.basename(filename)}:{function}"] += n
    return sum(per_function.values()), per_function


def trajectory_hash(trainer, steps: int = HASH_STEPS) -> str:
    """sha256 over ``steps`` losses, then parameters and Adam moments."""
    h = hashlib.sha256()
    for step in range(steps):
        h.update(np.float64(trainer.train_step(step)).tobytes())
    opt = trainer.optimizer
    for p, m, v in zip(opt.params, opt._m, opt._v):
        for a in (p.data, m, v):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def step_opcodes(
    trainer, steps: int, warmup: int = WARMUP_STEPS
) -> List[Tuple[int, int, Counter]]:
    """``(step, opcodes, per_function)`` for ``steps`` steps after ``warmup``."""
    for step in range(warmup):
        trainer.train_step(step)
    out = []
    for step in range(warmup, warmup + steps):
        total, per_function = count_opcodes(lambda: trainer.train_step(step))
        out.append((step, total, per_function))
    return out


class _Served:
    """A workload's served model (its expert format included), a KV
    cache over its slots, and fixed token ids: a prompt of its middle
    length per slot, then one column per decode step."""

    def __init__(self, name: str, decode_steps: int = 1) -> None:
        from repro.serving.engine import InferenceEngine

        w = _workloads()
        wl = w.WORKLOADS[name]
        self.slots = wl.slots
        self.engine = InferenceEngine(w.build_model(wl), quantize_experts=wl.quantize)
        self.prompt = sum(wl.prompt_len) // 2
        self.ids = np.random.default_rng(SEED).integers(
            0, w.VOCAB, size=(wl.slots, self.prompt + decode_steps)
        )
        self.cache = self.engine.new_cache(wl.slots)

    def prefill(self, slot: int) -> np.ndarray:
        self.cache.reset([slot])
        return self.engine.prefill(
            self.ids[slot : slot + 1, : self.prompt], self.cache, slots=[slot]
        )

    def decode(self, step: int = 0) -> np.ndarray:
        """Decode step ``step`` over every slot, each slot holding the
        prompt and the ``step`` tokens before it."""
        self.cache.lengths[:] = self.prompt + step
        return self.engine.decode_step(self.ids[:, self.prompt + step], self.cache)


def serve_opcodes(name: str) -> List[Tuple[str, int, int, Counter]]:
    """``(what, opcodes, direct calls, per_function)`` of one prefill at
    the middle prompt length and of one decode step over every slot."""
    from repro.observability import registry

    served = _Served(name)
    crossings = registry().counter("lower_direct_calls")

    def counted(what: str, fn: Callable[[], object]):
        before = crossings.value
        total, per_function = count_opcodes(fn)
        return what, total, crossings.value - before, per_function

    try:
        for slot in range(served.slots):
            served.prefill(slot)
        served.decode()  # warm-up round
        return [
            counted(f"prefill({served.prompt})", lambda: served.prefill(0)),
            counted(f"decode({served.slots} slots)", served.decode),
        ]
    finally:
        served.cache.release()


def serve_hash(name: str, steps: int = SERVE_HASH_STEPS) -> str:
    """sha256 over every slot's prefill logits, then ``steps`` decode
    steps' logits over every slot."""
    served = _Served(name, steps)
    h = hashlib.sha256()
    try:
        for slot in range(served.slots):
            h.update(served.prefill(slot).tobytes())
        for step in range(steps):
            h.update(served.decode(step).tobytes())
    finally:
        served.cache.release()
    return h.hexdigest()


def lowering(trainer, steps: int = WARMUP_STEPS) -> Tuple[int, int, int]:
    """``(native, lowered, total)`` replay records of ``trainer``'s ``cc``
    step graph after ``steps`` steps."""
    from repro.autograd import lower

    for step in range(steps):
        trainer.train_step(step)
    analysis = lower.analyze(trainer.step_graph)
    return len(analysis.native), len(analysis.lowered), analysis.total


def kernel_table() -> dict:
    """The kernel table's entries and the C functions they export."""
    from repro.autograd.lower import kernels

    return {
        "entries": len(kernels.TABLE),
        "symbols": sum(len(entry.symbols) for entry in kernels.TABLE),
    }


def tier1_ids() -> int:
    """Test ids tier-1 collects (``pytest tests``)."""
    out = subprocess.run(  # the repository's ``addopts`` (``-q``) print one id a line
        [sys.executable, "-m", "pytest", "--collect-only", "-p", "no:cacheprovider",
         os.path.join(REPO, "tests")],
        capture_output=True, text=True, check=True, cwd=REPO,
    ).stdout
    return sum("::" in line for line in out.splitlines())


def python_lines(top: str) -> int:
    """Lines of every ``.py`` file under ``REPO/top``."""
    n = 0
    for root, _dirs, files in os.walk(os.path.join(REPO, top)):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f), "rb") as fh:
                    n += fh.read().count(b"\n")
    return n


def readings(*args: str) -> List[List[str]]:
    """This script's output lines for ``args``, split into words, from a
    fresh process: a reading must not depend on what ran before it in
    the same interpreter (compile and topology caches warm up)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        capture_output=True, text=True, check=True,
    ).stdout
    return [line.split() for line in out.splitlines() if not line.startswith(" ")]


def read_hashes(*args: str) -> dict:
    """``--hash [--serve | --backend B]`` as ``{workload: sha256}``."""
    return {w[0]: w[2] for w in readings("--hash", *args)}


def read_opcodes(*args: str) -> dict:
    """``--opcodes [--backend B]`` as ``{shape: [opcodes per step]}``."""
    out: dict = {}
    for w in readings("--opcodes", *args):  # name backend step 3: N opcodes
        out.setdefault(w[0], []).append(int(w[4]))
    return out


def read_lowering() -> dict:
    """``--lowering`` as ``{shape: {"native": N, "lowered": L, "total": T}}``."""
    return {
        w[0]: {"native": int(w[2]), "lowered": int(w[3]), "total": int(w[4])}
        for w in readings("--lowering")  # name lowering N L T
    }


def read_serve_opcodes(*args: str) -> dict:
    """``--opcodes --serve`` as ``{workload: {"prefill"|"decode":
    {"opcodes": N, "lower_direct_calls": K}}}``."""
    out: dict = {}
    for w in readings("--opcodes", "--serve", *args):
        # name serve decode(4 slots): N opcodes, K lower_direct_calls
        out.setdefault(w[0], {})[w[2].split("(")[0]] = {
            "opcodes": int(w[-4]), "lower_direct_calls": int(w[-2]),
        }
    return out


def ledger_row(pr: int) -> dict:
    """Every exact reading of the tree, as one row of ``LEDGER``."""
    parent = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout.strip()
    rungs = ("eager", "cc")
    return {
        "pr": pr, "parent": parent, "python": PYTHON, "numpy": NUMPY,
        "source": "step_probe --record",
        "hash": {b: read_hashes("--backend", b) for b in rungs},
        "serve_hash": read_hashes("--serve"),
        "opcodes": {b: read_opcodes("--backend", b) for b in ("eager", "replay", "cc")},
        "serve_opcodes": read_serve_opcodes(),
        "lowering": read_lowering(),
        "kernel_table": kernel_table(),
        "tier1_ids": tier1_ids(),
        "lines": {"src": python_lines("src"), "tests": python_lines("tests")},
    }


def record(row: dict) -> None:
    """Append ``row`` to ``LEDGER``, replacing a row with its key."""
    rows = []
    if os.path.exists(LEDGER):
        with open(LEDGER) as f:
            rows = json.load(f)
    key = lambda r: (r["pr"], r["parent"], r["python"], r["numpy"])  # noqa: E731
    rows = [r for r in rows if key(r) != key(row)] + [row]
    with open(LEDGER, "w") as f:
        json.dump(rows, f, indent=1)
        f.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--hash", action="store_true", help="trajectory sha256 per workload")
    mode.add_argument("--opcodes", action="store_true", help="interpreter opcodes per step")
    mode.add_argument(
        "--lowering", action="store_true",
        help="native / lowered / total replay records of the cc step graph",
    )
    mode.add_argument(
        "--record", type=int, metavar="PR",
        help="take every reading and record it in BENCH_probe.json as PR's row",
    )
    ap.add_argument(
        "--workload", action="append", choices=SERVED,
        help="workload shape (repeatable; default: the three training shapes, "
        "or with --serve all four workloads)",
    )
    ap.add_argument(
        "--serve", action="store_true",
        help="read the served model (a prefill and decode steps), not a train step",
    )
    ap.add_argument("--backend", default="cc", choices=("eager", "replay", "cc"))
    ap.add_argument("--steps", type=int, default=3, help="--opcodes: steps counted")
    ap.add_argument("--top", type=int, default=0, help="--opcodes: functions listed per step")
    args = ap.parse_args(argv)

    if args.record is not None:
        row = ledger_row(args.record)
        record(row)
        print(json.dumps(row, indent=1))
        return 0
    for name in args.workload or (SERVED if args.serve else SHAPES):
        if args.serve and args.hash:
            print(f"{name} serve {serve_hash(name)}")
            continue
        if args.serve:
            for what, total, crossings, per_function in serve_opcodes(name):
                print(f"{name} serve {what}: {total} opcodes, {crossings} lower_direct_calls")
                for function, n in per_function.most_common(args.top):
                    print(f"    {n:8d} {100.0 * n / total:5.1f}%  {function}")
            continue
        if args.lowering:
            native, lowered, total = lowering(build_trainer(name, "cc"))
            print(f"{name} lowering {native} {lowered} {total}")
            continue
        trainer = build_trainer(name, args.backend)
        if args.hash:
            print(f"{name} {args.backend} {trajectory_hash(trainer)}")
            continue
        for step, total, per_function in step_opcodes(trainer, args.steps):
            print(f"{name} {args.backend} step {step}: {total} opcodes")
            for function, n in per_function.most_common(args.top):
                print(f"    {n:8d} {100.0 * n / total:5.1f}%  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
