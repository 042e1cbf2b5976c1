"""Streaming checkpoint benchmark: the async writer must take the
serialize+fsync cost off the training step.

Trains the Fig-7 *Small* dMoE twice from the same seed with periodic
checkpointing — once through the synchronous path (the step stalls for
the full ``ckpt_write``: serialize + fsync + rotation), once through the
async background writer (the step pays only ``ckpt_snapshot`` +
``ckpt_submit``) — and checks the PR 7 contracts:

- **Checkpoints are byte-identical**: both paths funnel the same
  step-boundary :class:`CheckpointState` through one serializer, so
  every shard and manifest must match byte for byte.
- **Training is identical**: losses are bit-equal; checkpointing policy
  cannot perturb the math.
- **The write overlaps training**: the serialize runs on the writer
  thread (``worker_ident`` differs from the training thread) and the
  boundary stall (snapshot + submit) is reported against the full
  synchronous write, per checkpoint.

Results land in ``BENCH_ckpt.json`` under ``harness.RESULT_DIR`` (path printed).
"""

import os
import tempfile
import threading
import time

from repro.checkpoint import CheckpointManager
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
CKPT_EVERY = 2 if SMOKE else 3


def _dir_bytes(path):
    out = {}
    for root, _, files in os.walk(path):
        for f in files:
            p = os.path.join(root, f)
            out[os.path.relpath(p, path)] = open(p, "rb").read()
    return out


def _train(ckpt_dir: str, async_ckpt: bool):
    seed_all(0)
    train, _ = pile_data()
    model = build_model("dmoe", "Small")
    cfg = TrainerConfig(
        global_batch=GLOBAL_BATCH,
        micro_batch=MICRO_BATCH,
        max_steps=STEPS,
        eval_every=0,
        log_every=1,
        async_checkpoint=async_ckpt,
    )
    trainer = Trainer(
        model, train, config=cfg, optimizer=Adam(model.parameters(), lr=3e-3)
    )
    manager = CheckpointManager(ckpt_dir, keep_last=STEPS)
    t0 = time.perf_counter()
    with tracing() as tracer:
        history = trainer.fit(
            checkpoint_manager=manager, checkpoint_every=CKPT_EVERY
        )
    wall_s = time.perf_counter() - t0
    return history, trainer, manager, tracer, wall_s


def test_ckpt_stream(benchmark):
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as tmp:
        _run_comparison(benchmark, tmp)


def _run_comparison(benchmark, tmp):
    sync_dir = os.path.join(tmp, "sync")
    async_dir = os.path.join(tmp, "async")

    sync_hist, sync_t, sync_mgr, sync_tr, sync_s = benchmark.pedantic(
        lambda: _train(sync_dir, False), rounds=1, iterations=1
    )
    async_hist, async_t, async_mgr, async_tr, async_s = _train(async_dir, True)

    # Checkpoint policy must not perturb the math.
    assert list(sync_hist.losses) == list(async_hist.losses), (
        "async checkpointing changed the training trajectory"
    )
    assert sync_mgr.steps == async_mgr.steps

    # Byte identity, shard for shard, manifest included.
    for step in sync_mgr.steps:
        a = _dir_bytes(sync_mgr.path_for(step))
        b = _dir_bytes(async_mgr.path_for(step))
        assert a.keys() == b.keys(), f"step {step}: shard sets differ"
        for name in a:
            assert a[name] == b[name], f"step {step}: {name} differs"

    # The async serialize really ran off the training thread.
    writer = async_t.ckpt_writer
    assert writer is not None and writer.failed == 0
    assert writer.written == len(async_mgr.steps)
    assert writer.worker_ident is not None
    assert writer.worker_ident != threading.get_ident()

    # Step-boundary stall: the synchronous path pays the full write;
    # the async path pays snapshot + submit only.
    sync_stall = [s.duration for s in sync_tr.roots("ckpt_write")]
    snap = [s.duration for s in async_tr.roots("ckpt_snapshot")]
    sub = [s.duration for s in async_tr.roots("ckpt_submit")]
    assert len(sync_stall) == len(snap) == len(sub) == len(sync_mgr.steps)
    async_stall = [a + b for a, b in zip(snap, sub)]
    mean = lambda xs: sum(xs) / len(xs)
    if not SMOKE:
        # At full size the serialize+fsync dominates the memcpy snapshot.
        assert mean(async_stall) < mean(sync_stall), (
            f"async boundary stall {mean(async_stall) * 1e3:.2f} ms is not "
            f"below the synchronous write {mean(sync_stall) * 1e3:.2f} ms"
        )

    result = {
        "steps": STEPS,
        "checkpoint_every": CKPT_EVERY,
        "checkpoints": len(sync_mgr.steps),
        "sync_wall_s": sync_s,
        "async_wall_s": async_s,
        "sync_stall_ms_per_ckpt": mean(sync_stall) * 1e3,
        "async_stall_ms_per_ckpt": mean(async_stall) * 1e3,
        "stall_reduction": (
            1.0 - mean(async_stall) / mean(sync_stall)
            if mean(sync_stall) > 0
            else 0.0
        ),
        "byte_identical": True,
        "smoke": SMOKE,
    }
    print_header("streaming checkpoints: sync vs async step-boundary stall")
    print(
        f"  per-checkpoint stall: sync {result['sync_stall_ms_per_ckpt']:.2f} ms"
        f" -> async {result['async_stall_ms_per_ckpt']:.2f} ms"
        f" ({result['stall_reduction']:.0%} off the step boundary)"
    )
    print(f"  wall: sync {sync_s:.2f} s, async {async_s:.2f} s")
    write_result("BENCH_ckpt.json", result)
