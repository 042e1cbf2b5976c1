"""Traced training step: per-phase breakdown, exporter validity, and the
cost of observability.

Trains the Fig-7 *Small* dMoE twice from the same seed — once under a
tracer, once without — and checks the three contracts the observability
layer (``docs/observability.md``) makes:

- **Tracing is free**: both runs produce bit-identical losses and final
  parameters (spans read ``time.perf_counter`` only, never tensor data).
- **The breakdown is complete**: per-phase times recorded into each
  ``TrainingRecord`` sum to within 10% of the measured step time.
- **The export is valid**: the Chrome-trace JSON passes schema
  validation (``ph``/``ts``/``dur`` on every complete event) with
  strictly nested spans, and holds at least 3 ``step`` roots.

Results land in ``BENCH_trace.json`` under ``harness.RESULT_DIR`` (path printed).
"""

import time

import numpy as np

from repro.observability.export import chrome_trace, phase_rows, step_table
from repro.observability.export import validate_chrome_trace
from repro.observability.tracing import tracing
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

STEPS = 4 if SMOKE else 12

#: Full-run ceiling on the per-phase residual: the spans wrapped around
#: ``Trainer._train_step_impl`` must account for >= 90% of the step.
MAX_PHASE_RESIDUAL = 0.10


def _train(traced: bool):
    seed_all(0)
    train, _ = pile_data()
    model = build_model("dmoe", "Small")
    cfg = TrainerConfig(
        global_batch=GLOBAL_BATCH,
        micro_batch=MICRO_BATCH,
        max_steps=STEPS,
        eval_every=0,
        log_every=1,
    )
    trainer = Trainer(
        model, train, config=cfg, optimizer=Adam(model.parameters(), lr=3e-3)
    )
    t0 = time.perf_counter()
    if traced:
        with tracing() as tracer:
            history = trainer.train()
    else:
        tracer = None
        history = trainer.train()
    wall_s = time.perf_counter() - t0
    params = [p.data.copy() for p in model.parameters()]
    return history, params, tracer, wall_s


def test_traced_step_breakdown(benchmark):
    plain_hist, plain_params, _, plain_s = benchmark.pedantic(
        lambda: _train(False), rounds=1, iterations=1
    )
    traced_hist, traced_params, tracer, traced_s = _train(True)

    # Tracing must not perturb the math.
    assert list(plain_hist.losses) == list(traced_hist.losses), (
        "tracing changed the training trajectory"
    )
    assert len(plain_params) == len(traced_params)
    for a, b in zip(plain_params, traced_params):
        assert np.array_equal(a, b), "tracing changed the final parameters"

    # The trace holds one root span per step.
    steps = tracer.roots("step")
    assert len(steps) >= 3, f"expected >= 3 step spans, got {len(steps)}"
    assert len(steps) == STEPS

    # Per-phase times on each record sum to within 10% of the step time.
    # (The closing eval record at step == max_steps is not a training
    # step and carries no timing.)
    step_records = [r for r in traced_hist.records if r.step < STEPS]
    assert len(step_records) == STEPS
    residuals = []
    for rec in step_records:
        assert rec.step_time is not None and rec.phase_times
        covered = sum(rec.phase_times.values())
        residuals.append(1.0 - covered / rec.step_time)
    worst = max(residuals)
    assert worst < MAX_PHASE_RESIDUAL, (
        f"phase times cover only {(1 - worst) * 100:.1f}% of the worst step"
    )

    # The exporter produces schema-valid, strictly nested Chrome JSON.
    trace = chrome_trace(tracer)
    events = validate_chrome_trace(trace)
    assert all(
        e["ph"] == "X" and e["ts"] >= 0 and e["dur"] >= 0 for e in events
    )

    rows = phase_rows(tracer)
    mean_total = float(np.mean([r["_total"] for r in rows]))
    phases = sorted({k for r in rows for k in r} - {"_total"})
    breakdown = {
        p: float(np.mean([r.get(p, 0.0) for r in rows])) for p in phases
    }

    print_header("Traced training step: per-phase breakdown")
    print(step_table(tracer))
    print(
        f"wall clock: plain {plain_s:.2f}s, traced {traced_s:.2f}s "
        f"({(traced_s / plain_s - 1) * 100:+.1f}%)"
    )
    print(f"worst per-step phase residual: {worst * 100:.1f}%")

    result = {
        "config": "Fig7-Small dMoE",
        "smoke": SMOKE,
        "steps": STEPS,
        "mean_step_s": mean_total,
        "phase_breakdown_s": breakdown,
        "worst_phase_residual": worst,
        "trace_events": len(trace["traceEvents"]),
        "plain_wall_s": plain_s,
        "traced_wall_s": traced_s,
    }
    write_result("BENCH_trace.json", result)
