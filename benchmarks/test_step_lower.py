"""Native-code lowering: generated-C execution vs NumPy replay vs eager.

``TrainerConfig(backend="cc")`` lowers each captured
:class:`repro.autograd.StepGraph` to one generated C translation unit
(fused elementwise chains, specialized kernels, static buffer plan) and
swaps the compiled segments into the replay schedule; the fused Adam
and grad-clip kernels ride along.  This benchmark trains the Fig-7
*Small* dMoE configuration three ways — eager steady-state (PR 3),
NumPy replay (PR 5), lowered (this PR) — and measures post-warmup step
latency with interleaved min-of-``REPS`` repeats (single-shot timings
on shared CI machines swing by 1.5x+; the minimum of interleaved
rounds is the stable dispatch-cost estimate).

Lowering must be free (bit-identical losses across all three paths),
broad (>= 90% of replayable records executed natively now that the
grouped-GEMM and MoE-dispatch kernels run native), and faster than the
NumPy replay interpreter in the same interleaved run — the one timing
assert, a same-process ordering; step times recorded by earlier PRs are
not gates (they describe other kernels on another day's machine).
Results land in ``BENCH_lower.json`` under ``harness.RESULT_DIR`` (path printed).
"""

import gc
import time

from repro.autograd import lower
from repro.observability import registry
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
REPS = 6 if SMOKE else 3

#: Floor on the fraction of replayable records executed natively on the
#: bench workload.  With the grouped-GEMM, dense-GEMM, softmax, and
#: router kernels native, only the dispatch-plan builders and a handful
#: of scalar reductions stay host by design.
MIN_LOWER_COVERAGE = 0.90


def _build_trainer(backend: str) -> Trainer:
    seed_all(0)
    train, _ = pile_data()
    model = build_model("dmoe", "Small")
    cfg = TrainerConfig(
        global_batch=GLOBAL_BATCH,
        micro_batch=MICRO_BATCH,
        max_steps=WARMUP_STEPS + REPS * TIMED_STEPS,
        eval_every=0,
        log_every=0,
        steady_state=True,
        backend=backend,
    )
    return Trainer(model, train, config=cfg, optimizer=Adam(model.parameters(), lr=3e-3))


def _measure():
    """Interleaved comparison: warm all three trainers, then alternate
    timed rounds so OS/cache noise hits every path equally; report the
    min per path."""
    arms = [
        ("eager", _build_trainer("eager")),
        ("replay", _build_trainer("replay")),
        ("lowered", _build_trainer("cc")),
    ]
    losses = {name: [] for name, _ in arms}
    step = 0
    for _ in range(WARMUP_STEPS):
        for name, tr in arms:
            losses[name].append(tr.train_step(step))
        step += 1

    times = {name: [] for name, _ in arms}
    # Timed rounds run with the cyclic GC off: a collection landing
    # inside one round skews a single path by several ms, which
    # min-of-reps cannot cancel.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            for name, tr in arms:
                t0 = time.perf_counter()
                for k in range(TIMED_STEPS):
                    losses[name].append(tr.train_step(step + k))
                times[name].append((time.perf_counter() - t0) / TIMED_STEPS)
            step += TIMED_STEPS
    finally:
        if gc_was_enabled:
            gc.enable()
    return dict(arms), losses, times


def test_step_lower(benchmark):
    if not lower.cc_available():
        import pytest

        pytest.skip("no C toolchain in this environment")
    reg = registry()
    names = (
        "graph_lowered",
        "lower_compile_ms",
        "lower_cache_hits",
        "lower_segment_fallbacks",
        "lower_toolchain_fallbacks",
    )
    before = {k: reg.counter(k).value for k in names}

    def _measure_retrying():
        """One retry when the ordering reads inverted: a single noisy
        epoch on this container can depress even the interleaved min
        (observed <1x swings across back-to-back runs); a genuine
        dispatch regression fails both rounds."""
        result = _measure()
        if SMOKE:
            _, _, t = result
            if min(t["replay"]) <= min(t["lowered"]):
                result = _measure()
        return result

    arms, losses, times = benchmark.pedantic(
        _measure_retrying, rounds=1, iterations=1
    )
    counts = {k: reg.counter(k).value - before[k] for k in names}

    eager_s = min(times["eager"])
    replay_s = min(times["replay"])
    lowered_s = min(times["lowered"])
    speedup_vs_replay = replay_s / lowered_s
    speedup_vs_eager = eager_s / lowered_s

    plan = arms["lowered"].step_graph._lowered
    assert plan is not None, "backend='cc' did not attach a lowered plan"
    coverage = plan.coverage

    print_header("Native lowering: generated C vs NumPy replay vs eager")
    print(f"{'path':18} {'step time':>12}")
    print(f"{'eager (PR 3)':18} {eager_s * 1e3:>10.2f}ms")
    print(f"{'replay (PR 5)':18} {replay_s * 1e3:>10.2f}ms")
    print(f"{'lowered (cc)':18} {lowered_s * 1e3:>10.2f}ms")
    print(
        f"speedup = {speedup_vs_replay:.2f}x vs interleaved replay, "
        f"{speedup_vs_eager:.2f}x vs interleaved eager"
    )
    print(
        f"coverage: {plan.records_lowered}/{plan.records_total} replay "
        f"records native ({coverage:.1%}), "
        f"{counts['lower_segment_fallbacks']} segment fallbacks, "
        f"{counts['lower_compile_ms']}ms compiling "
        f"({counts['lower_cache_hits']} cache hits)"
    )

    result = {
        "config": "Fig7-Small dMoE (steady_state=True)",
        "smoke": SMOKE,
        "warmup_steps": WARMUP_STEPS,
        "timed_steps": TIMED_STEPS,
        "reps": REPS,
        "eager_step_s": eager_s,
        "replay_step_s": replay_s,
        "lowered_step_s": lowered_s,
        "speedup_vs_replay": speedup_vs_replay,
        "speedup_vs_eager": speedup_vs_eager,
        "records_total": plan.records_total,
        "records_lowered": plan.records_lowered,
        "coverage": coverage,
        "graph_lowered": counts["graph_lowered"],
        "lower_compile_ms": counts["lower_compile_ms"],
        "lower_cache_hits": counts["lower_cache_hits"],
        "lower_segment_fallbacks": counts["lower_segment_fallbacks"],
        "lower_toolchain_fallbacks": counts["lower_toolchain_fallbacks"],
    }
    write_result("BENCH_lower.json", result)

    # Lowering must be free: identical trajectories on all three paths.
    assert losses["eager"] == losses["replay"], "replay changed the math"
    assert losses["eager"] == losses["lowered"], "lowering changed the math"
    # Broad: the bench workload keeps GEMM/routing on the host, but the
    # elementwise/LayerNorm/scatter mass must run native.
    assert coverage >= MIN_LOWER_COVERAGE, (
        f"only {coverage:.1%} of replay records lowered "
        f"(floor {MIN_LOWER_COVERAGE:.0%})"
    )
    # Stable: the per-segment guards must hold across routing drift
    # (flat/flat2 segments re-read live shapes instead of falling back).
    assert counts["lower_segment_fallbacks"] == 0
    assert counts["graph_lowered"] >= 1
    assert counts["lower_toolchain_fallbacks"] == 0

    # Direction only: an interleaved same-process ratio, so ambient
    # load hits both paths alike.
    assert speedup_vs_replay > 1.0, (
        f"lowered slower than replay ({speedup_vs_replay:.2f}x)"
    )
