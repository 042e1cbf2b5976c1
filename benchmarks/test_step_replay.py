"""Captured step graphs: compiled replay vs the eager steady-state step.

``TrainerConfig(backend="replay")`` records the first micro batch into a
:class:`repro.autograd.StepGraph` and replays the compiled op schedule
(pre-resolved buffers, pre-bound forward/backward methods) on every
signature-matching step, skipping module traversal and tape
construction entirely.  This benchmark trains the Fig-7 *Small* dMoE
configuration with the PR-3 steady-state step both ways and measures
post-warmup step latency with interleaved min-of-``REPS`` repeats
(single-shot step timings on shared CI machines swing by 1.5x+; the
minimum of interleaved rounds is the stable dispatch-cost estimate).

Replay must be free (bit-identical losses), tape-free (zero tape nodes
on replayed steps), and faster.  Results land in ``BENCH_replay.json``
next to this file.
"""

import gc
import time

from repro.autograd import stats as ag_stats
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

#: PR 3's recorded steady-state step time for this exact configuration
#: (Fig7-Small dMoE, smoke sizes) — frozen from benchmarks/BENCH_step.json
#: as committed by the zero-allocation-step PR, since that file is
#: rewritten whenever test_step_memory runs.  The acceptance bar for
#: this PR is >= 1.5x over it at smoke sizes.
PR3_STEADY_SMOKE_S = 0.054662802666522715

#: This config's *eager* steady-state step time measured by this very
#: benchmark (interleaved run) in the same session that recorded the
#: committed ``BENCH_replay.json`` — i.e. at the machine speed where
#: ``replay`` measured 1.5x+ over ``PR3_STEADY_SMOKE_S``.  Used to
#: load-compensate the canary below: this container's wall clock drifts
#: +-30% with invisible host contention, so a raw comparison of one
#: run's replay time against a constant recorded weeks earlier flakes.
REF_EAGER_SMOKE_S = 0.0406

#: Smoke-mode canary floor for the *load-compensated* speedup vs the
#: frozen PR-3 number: ``speedup_vs_eager * (PR3 / REF_EAGER)``.  Both
#: factors are drift-free — the first is an interleaved same-process
#: ratio (ambient load hits both paths equally), the second is a frozen
#: constant — so this gates replay-dispatch regressions specifically
#: without flaking on machine speed.  Quiet runs measure ~1.5-1.6x; a
#: shared-compute (both-path) regression is the PR-3 benchmark's job
#: (test_step_memory), not this canary's.
MIN_COMPENSATED_SPEEDUP_VS_PR3 = 1.25


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
    """Interleaved comparison: warm both trainers, then alternate timed
    rounds so OS/cache noise hits both paths equally; report the min."""
    eager = _build_trainer("eager")
    replay = _build_trainer("replay")
    losses = {"eager": [], "replay": []}
    tape = {}
    step = 0
    for _ in range(WARMUP_STEPS):
        losses["eager"].append(eager.train_step(step))
        losses["replay"].append(replay.train_step(step))
        step += 1

    times = {"eager": [], "replay": []}
    # Timed rounds run with the cyclic GC off: a collection landing inside
    # one round (suite runs carry garbage from earlier tests) skews a
    # single path by several ms, which min-of-reps cannot cancel.
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            for name, tr in (("eager", eager), ("replay", replay)):
                t0 = time.perf_counter()
                for k in range(TIMED_STEPS):
                    losses[name].append(tr.train_step(step + k))
                times[name].append((time.perf_counter() - t0) / TIMED_STEPS)
                # ag_stats is reset per step: this is the last step's tape.
                tape[name] = ag_stats.tape_nodes
            step += TIMED_STEPS
    finally:
        if gc_was_enabled:
            gc.enable()
    return eager, replay, losses, times, tape


def test_step_replay(benchmark):
    reg = registry()
    before = {
        k: reg.counter(f"graph_{k}").value
        for k in ("captures", "replays", "fallbacks")
    }
    eager, replay, losses, times, tape = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    after = {
        k: reg.counter(f"graph_{k}").value
        for k in ("captures", "replays", "fallbacks")
    }
    counts = {k: after[k] - before[k] for k in before}

    eager_s = min(times["eager"])
    replay_s = min(times["replay"])
    speedup = eager_s / replay_s
    speedup_vs_pr3 = PR3_STEADY_SMOKE_S / replay_s
    compensated_vs_pr3 = speedup * (PR3_STEADY_SMOKE_S / REF_EAGER_SMOKE_S)
    graph = replay.step_graph

    print_header("Captured step graph: compiled replay vs eager steady-state")
    print(f"{'path':18} {'step time':>12} {'tape nodes':>12}")
    print(f"{'eager (PR 3)':18} {eager_s * 1e3:>10.2f}ms {tape['eager']:>12}")
    print(f"{'replay':18} {replay_s * 1e3:>10.2f}ms {tape['replay']:>12}")
    print(
        f"speedup = {speedup:.2f}x vs interleaved eager, "
        f"{speedup_vs_pr3:.2f}x vs PR 3's recorded {PR3_STEADY_SMOKE_S * 1e3:.2f}ms"
        f" ({compensated_vs_pr3:.2f}x load-compensated)"
    )
    print(
        f"graph: {graph.num_records} records ({graph.num_ops} ops), "
        f"{counts['captures']} captures / {counts['replays']} replays / "
        f"{counts['fallbacks']} fallbacks"
    )

    result = {
        "config": "Fig7-Small dMoE (steady_state=True)",
        "smoke": SMOKE,
        "warmup_steps": WARMUP_STEPS,
        "timed_steps": TIMED_STEPS,
        "reps": REPS,
        "eager_step_s": eager_s,
        "replay_step_s": replay_s,
        "speedup_vs_eager": speedup,
        "pr3_steady_step_s": PR3_STEADY_SMOKE_S,
        "speedup_vs_pr3": speedup_vs_pr3,
        "speedup_vs_pr3_load_compensated": compensated_vs_pr3,
        "eager_tape_nodes": tape["eager"],
        "replay_tape_nodes": tape["replay"],
        "graph_records": graph.num_records,
        "graph_ops": graph.num_ops,
        "graph_captures": counts["captures"],
        "graph_replays": counts["replays"],
        "graph_fallbacks": counts["fallbacks"],
    }
    write_result("BENCH_replay.json", result)

    # Replay must be free: identical training trajectories...
    assert losses["eager"] == losses["replay"], "replay changed the math"
    # ...and tape-free: replayed steps build zero autograd nodes.
    assert tape["eager"] > 0
    assert tape["replay"] == 0
    # Exactly one capture, no fallbacks: the signature stayed stable
    # after warmup, so the recapture count is flat.
    assert counts["captures"] == 1
    assert counts["fallbacks"] == 0
    assert counts["replays"] == 2 * (WARMUP_STEPS + REPS * TIMED_STEPS) - 1

    # Direction always (interleaved, so load cancels); the canary floor
    # vs PR 3's frozen number only applies at the sizes it measured, and
    # is load-compensated (see REF_EAGER_SMOKE_S) so host-contention
    # epochs on shared CI machines cannot flake it.
    assert speedup > 1.0, f"replay slower than eager ({speedup:.2f}x)"
    if SMOKE:
        assert compensated_vs_pr3 >= MIN_COMPENSATED_SPEEDUP_VS_PR3, (
            f"replay {compensated_vs_pr3:.2f}x (load-compensated) vs PR 3 "
            f"< {MIN_COMPENSATED_SPEEDUP_VS_PR3}x"
        )
