#!/usr/bin/env python3
"""The drift-free readings of a step: its bits and its Python.

All are exact — no wall clock — so they compare across commits and
machines (opcode counts across one interpreter version):

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

The trainer is ``bench/workloads.build_trainer`` and the served model
``bench/workloads.build_model`` (imported, never modified), single
process (``dp_world=0``), so a probe reads the same model, data and
learning rate the benchmark times.

    PYTHONPATH=src python tools/step_probe.py --hash
    PYTHONPATH=src python tools/step_probe.py --opcodes --workload small_decode --top 12
    PYTHONPATH=src python tools/step_probe.py --opcodes --serve
    PYTHONPATH=src python tools/step_probe.py --hash --serve
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
#: ... but serves it with int8 experts.
SERVED = SHAPES + ("dp2_int8",)
HASH_STEPS = 30
SERVE_HASH_STEPS = 8
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


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--hash", action="store_true", help="trajectory sha256 per workload")
    mode.add_argument("--opcodes", action="store_true", help="interpreter opcodes per step")
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
