"""Serving allocates no autograd state and no new arena memory at steady state.

Two invariants the inference fast path exists to provide:

1. **Zero tape nodes** — ``inference_mode`` runs entirely outside the
   autograd tape, so decode steps record nothing (no graph to free, no
   per-token garbage proportional to model depth).
2. **Zero arena growth after warmup** — the first generation allocates
   KV buffers through the detached pool; every later generation reuses
   them (``misses`` stays flat, ``pooled_bytes`` stays flat).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import stats
from repro.autograd.arena import get_arena
from repro.serving.engine import InferenceEngine
from repro.serving.scheduler import ContinuousBatchingScheduler, Request

from tests.serving.conftest import VOCAB, make_model


@pytest.mark.parametrize("system", ["dense", "dmoe"])
def test_zero_tape_nodes_during_generate(system):
    model = make_model(system)
    engine = InferenceEngine(model)
    prompts = np.random.default_rng(0).integers(0, VOCAB, size=(2, 4))

    stats.reset()
    engine.generate(prompts, 6, temperature=0.8, top_k=5, rng=1)
    assert stats.tape_nodes == 0


def test_zero_tape_nodes_during_scheduler_run():
    engine = InferenceEngine(make_model("dmoe", top_k=2))
    sched = ContinuousBatchingScheduler(engine, max_batch_size=2)
    gen = np.random.default_rng(2)
    reqs = [
        Request(
            prompt=gen.integers(0, VOCAB, size=int(gen.integers(2, 7))),
            max_new_tokens=int(gen.integers(2, 8)),
            temperature=0.7, top_k=4, seed=i,
        )
        for i in range(4)
    ]
    stats.reset()
    results = sched.run(reqs)
    sched.close()
    assert len(results) == 4
    assert stats.tape_nodes == 0


def test_training_still_records_tape_nodes():
    """Sanity check that the counter itself is live outside serving."""
    from repro.autograd.tensor import Tensor

    model = make_model("dense")
    model.train()
    stats.reset()
    out = model.forward(np.array([[1, 2, 3]]))
    assert stats.tape_nodes > 0
    model.eval()


def test_zero_arena_growth_after_warmup():
    """Second and later generates reuse the warmup generation's buffers."""
    model = make_model("dense")
    engine = InferenceEngine(model)
    arena = get_arena()
    prompts = np.random.default_rng(3).integers(0, VOCAB, size=(4, 5))

    engine.generate(prompts, 4, temperature=0.0)  # warmup: allocates KV
    misses = arena.misses
    pooled = arena.pooled_bytes
    for _ in range(3):
        engine.generate(prompts, 4, temperature=0.0)
    assert arena.misses == misses
    assert arena.pooled_bytes == pooled


def test_zero_arena_growth_across_scheduler_batches():
    """Serving many requests in sequence reuses one cache's memory."""
    engine = InferenceEngine(make_model("dense"))
    arena = get_arena()
    gen = np.random.default_rng(4)

    def batch(seed):
        return [
            Request(
                prompt=gen.integers(0, VOCAB, size=4),
                max_new_tokens=3, temperature=0.0,
            )
            for _ in range(3)
        ]

    sched = ContinuousBatchingScheduler(engine, max_batch_size=4)
    sched.run(batch(0))
    sched.close()

    misses = arena.misses
    pooled = arena.pooled_bytes
    for seed in range(1, 3):
        sched = ContinuousBatchingScheduler(engine, max_batch_size=4)
        sched.run(batch(seed))
        sched.close()
    assert arena.misses == misses
    assert arena.pooled_bytes == pooled
