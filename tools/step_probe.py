#!/usr/bin/env python3
"""The drift-free readings of a step: its bits and its Python.

All are exact — no wall clock — so they compare across commits and
machines (opcode counts across one interpreter version):

``--hash``
    sha256 of a 30-step, seed-1 trajectory — every step's loss, then
    every parameter and both Adam moments — per ``bench/`` workload
    shape.  Equal on two commits means no training bit moved.

``--opcodes``
    Interpreter opcodes executed by one ``train_step`` (``sys.settrace``
    with ``f_trace_opcodes``), after three untraced warm-up steps, with
    the functions that executed most of them.  This is the Python a step
    still runs between its native kernels.

``--opcodes --serve``
    The same count for serving: one prefill at the workload's middle
    prompt length, then one decode step over all its slots (each holding
    such a prompt), after one untraced round of both.

The trainer is ``bench/workloads.build_trainer`` and the served model
``bench/workloads.build_model`` (imported, never modified), single
process (``dp_world=0``), so a probe reads the same model, data and
learning rate the benchmark times.

    PYTHONPATH=src python tools/step_probe.py --hash
    PYTHONPATH=src python tools/step_probe.py --opcodes --workload small_decode --top 12
    PYTHONPATH=src python tools/step_probe.py --opcodes --serve
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from collections import Counter
from typing import Callable, List, Optional, Tuple

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: ``dp2_int8`` trains ``ref_prefill``'s model; single-process it is the same run.
SHAPES = ("ref_prefill", "small_decode", "skew_queue")
HASH_STEPS = 30
WARMUP_STEPS = 3
SEED = 1


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


def serve_opcodes(name: str) -> List[Tuple[str, int, Counter]]:
    """``(what, opcodes, per_function)`` of one prefill at the middle
    prompt length and of one decode step over every slot, on the
    workload's served model (its expert format included)."""
    from repro.serving.engine import InferenceEngine

    w = _workloads()
    wl = w.WORKLOADS[name]
    engine = InferenceEngine(w.build_model(wl), quantize_experts=wl.quantize)
    prompt = sum(wl.prompt_len) // 2
    ids = np.random.default_rng(SEED).integers(0, w.VOCAB, size=(wl.slots, prompt))
    cache = engine.new_cache(wl.slots)

    def prefill(slot: int) -> None:
        cache.reset([slot])
        engine.prefill(ids[slot : slot + 1], cache, slots=[slot])

    def decode() -> None:
        cache.lengths[:] = prompt
        engine.decode_step(ids[:, -1], cache)

    try:
        for slot in range(wl.slots):
            prefill(slot)
        decode()  # warm-up round
        out = [(f"prefill({prompt})", *count_opcodes(lambda: prefill(0)))]
        out.append((f"decode({wl.slots} slots)", *count_opcodes(decode)))
    finally:
        cache.release()
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--hash", action="store_true", help="trajectory sha256 per workload")
    mode.add_argument("--opcodes", action="store_true", help="interpreter opcodes per step")
    ap.add_argument(
        "--workload", action="append", choices=SHAPES,
        help="workload shape (repeatable; default: all three)",
    )
    ap.add_argument(
        "--serve", action="store_true",
        help="--opcodes: count a serving prefill and decode step, not a train step",
    )
    ap.add_argument("--backend", default="cc", choices=("eager", "replay", "cc"))
    ap.add_argument("--steps", type=int, default=3, help="--opcodes: steps counted")
    ap.add_argument("--top", type=int, default=0, help="--opcodes: functions listed per step")
    args = ap.parse_args(argv)
    if args.serve and not args.opcodes:
        ap.error("--serve goes with --opcodes")

    for name in args.workload or SHAPES:
        if args.serve:
            for what, total, per_function in serve_opcodes(name):
                print(f"{name} serve {what}: {total} opcodes")
                for function, n in per_function.most_common(args.top):
                    print(f"    {n:8d} {100.0 * n / total:5.1f}%  {function}")
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
