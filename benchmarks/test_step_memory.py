"""Steady-state training step: latency and allocation churn, fused+arena
vs. the reference path.

The zero-allocation step (``docs/performance.md``) combines the buffer
arena, in-place gradient accumulation, in-place Adam, and the fused
elementwise ops.  This benchmark trains the Fig-7 *Small* dMoE
configuration both ways and measures:

- **step latency** (wall clock, post-warmup), and
- **per-step allocation peak** via ``tracemalloc`` (new bytes allocated
  above the step's starting watermark — pooled arena memory, being
  reused, does not count).

Both runs must produce bit-identical losses (the optimization is free),
the steady-state step must be meaningfully faster, and its per-step
allocation peak must be an order of magnitude smaller.  Results land in
``BENCH_step.json`` under ``harness.RESULT_DIR`` (path printed).
"""

import gc
import time
import tracemalloc

import numpy as np

from repro.training import Adam, Trainer, TrainerConfig
from repro.utils.rng import seed_all

from harness import (
    GLOBAL_BATCH,
    MICRO_BATCH,
    SMOKE,
    build_model,
    pile_data,
    print_header,
    write_result,
)

WARMUP_STEPS = 2
TIMED_STEPS = 3 if SMOKE else 10
MEM_STEPS = 2 if SMOKE else 4

#: Full-run acceptance floors; smoke mode only sanity-checks direction
#: (tiny models + tracing overhead make tight bounds flaky in CI).
MIN_SPEEDUP = 1.3
MIN_ALLOC_REDUCTION = 10.0


def _build_trainer(steady: bool) -> Trainer:
    seed_all(0)
    train, _ = pile_data()
    model = build_model("dmoe", "Small")
    cfg = TrainerConfig(
        global_batch=GLOBAL_BATCH,
        micro_batch=MICRO_BATCH,
        max_steps=WARMUP_STEPS + TIMED_STEPS + MEM_STEPS,
        eval_every=0,
        log_every=0,
        steady_state=steady,
    )
    return Trainer(model, train, config=cfg, optimizer=Adam(model.parameters(), lr=3e-3))


def _measure(steady: bool):
    tr = _build_trainer(steady)
    step = 0
    losses = []
    for _ in range(WARMUP_STEPS):
        losses.append(tr.train_step(step))
        step += 1

    t0 = time.perf_counter()
    for _ in range(TIMED_STEPS):
        losses.append(tr.train_step(step))
        step += 1
    step_s = (time.perf_counter() - t0) / TIMED_STEPS

    # Allocation churn, measured separately (tracing slows the step).
    gc.collect()
    tracemalloc.start()
    peaks = []
    for _ in range(MEM_STEPS):
        tracemalloc.reset_peak()
        start_bytes, _ = tracemalloc.get_traced_memory()
        losses.append(tr.train_step(step))
        step += 1
        _, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - start_bytes)
    tracemalloc.stop()
    return step_s, float(np.median(peaks)), losses


def test_step_latency_and_allocations(benchmark):
    ref_s, ref_bytes, ref_losses = benchmark.pedantic(
        lambda: _measure(False), rounds=1, iterations=1
    )
    fast_s, fast_bytes, fast_losses = _measure(True)

    speedup = ref_s / fast_s
    alloc_reduction = ref_bytes / max(fast_bytes, 1.0)

    print_header("Steady-state step: fused + arena vs reference")
    print(f"{'path':18} {'step time':>12} {'alloc peak/step':>16}")
    print(f"{'reference':18} {ref_s * 1e3:>10.1f}ms {ref_bytes / 1e6:>14.2f}MB")
    print(f"{'steady-state':18} {fast_s * 1e3:>10.1f}ms {fast_bytes / 1e6:>14.2f}MB")
    print(f"speedup = {speedup:.2f}x, allocation reduction = {alloc_reduction:.1f}x")

    result = {
        "config": "Fig7-Small dMoE",
        "smoke": SMOKE,
        "warmup_steps": WARMUP_STEPS,
        "timed_steps": TIMED_STEPS,
        "reference_step_s": ref_s,
        "steady_step_s": fast_s,
        "speedup": speedup,
        "reference_alloc_peak_bytes": ref_bytes,
        "steady_alloc_peak_bytes": fast_bytes,
        "alloc_reduction": alloc_reduction,
    }
    write_result("BENCH_step.json", result)

    # The optimization must be free: identical training trajectories.
    assert ref_losses == fast_losses, "steady-state step changed the math"

    if SMOKE:
        # Canary mode: both paths ran end to end; allocation reduction is
        # robust even at tiny sizes, timing is too noisy to gate on.
        assert alloc_reduction > 2.0
        return
    assert speedup >= MIN_SPEEDUP, f"speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    assert alloc_reduction >= MIN_ALLOC_REDUCTION, (
        f"allocation reduction {alloc_reduction:.1f}x < {MIN_ALLOC_REDUCTION}x"
    )
