"""Tier-1 equivalence smoke for the zero-allocation steady-state step.

The buffer arena is a pure performance feature: its bit-identity with
the allocating reference — plain and through a guardrail rewind, which
touches pooled gradient buffers — is stated once, over every rung, in
``test_rung_matrix.py``.  The tests here hold its telemetry and its
bounds.  "Zero-allocation" itself is held as a ``tracemalloc`` ratio on
the Fig-7 Small shape — bytes, not a clock; ``bench/`` reads the same quantity as ``autograd.step_alloc_peak_mb``.
"""

import gc
import tracemalloc

import numpy as np

from repro.autograd import get_arena
from repro.autograd import stats as ag_stats
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.training import Adam, Trainer, TrainerConfig

STEPS = 6


def fig7_small_trainer(steady, backend="eager"):
    """The Fig-7 *Small* dMoE stand-in of ``benchmarks/harness.py``
    (hidden 48, 3 layers, 8 experts, block 8; batch 16 in micro batches
    of 8) on its synthetic Pile: the shape the allocation and
    lowering-coverage floors were set on."""
    from repro.core import dMoE
    from repro.utils.rng import seed_all

    seed_all(0)
    pile = SyntheticPile(PileConfig(vocab_size=128, num_domains=8, branching=4), seed=7)
    train, _ = LMDataset(pile.token_stream(12_000, 64), seq_len=32).split(0.05)
    ffn = lambda i: dMoE(
        48, 192, 8, block_size=8, rng=1000 + i, load_balance_coef=0.01
    )
    model = TransformerLM(128, 48, 3, 3, 32, ffn_factory=ffn, rng=5)
    cfg = TrainerConfig(
        global_batch=16,
        micro_batch=8,
        max_steps=10**9,
        eval_every=0,
        log_every=0,
        steady_state=steady,
        backend=backend,
    )
    return Trainer(model, train, config=cfg, optimizer=Adam(model.parameters(), lr=3e-3))


def _trainer(steady, dropout_p=0.1):
    from repro.core import dMoE

    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    ds = LMDataset(pile.token_stream(6_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    ffn = lambda i: dMoE(16, 32, num_experts=4, block_size=8, rng=i)
    model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, dropout_p=dropout_p, rng=0)
    cfg = TrainerConfig(
        global_batch=8,
        micro_batch=4,
        max_steps=STEPS,
        eval_every=3,
        eval_batches=2,
        log_every=1,
        steady_state=steady,
    )
    return Trainer(
        model, train, val, cfg, optimizer=Adam(model.parameters(), lr=1e-3), rng=9
    )


class TestSteadyStateEquivalence:
    def test_telemetry_reports_fusion_and_reuse(self):
        tr = _trainer(True)
        hist = tr.train()
        recs = [r for r in hist.records if r.tape_nodes is not None]
        assert recs, "steady-state run logged no telemetry"
        last = recs[-1]
        assert last.tape_nodes > 0
        assert last.nodes_fused > 0  # fused ops actually dispatched
        assert last.arena_hit_rate is not None
        # After warmup the pool serves essentially every fixed-shape
        # request; cumulative hit rate over a short run is still high.
        assert last.arena_hit_rate > 0.5
        ref = _trainer(False).train()
        ref_last = [r for r in ref.records if r.tape_nodes is not None][-1]
        # Both runs take the fused ops: the arena changes no tape node.
        assert last.tape_nodes == ref_last.tape_nodes

    def test_arena_pool_is_bounded(self):
        """Generations retire buffers: the pool stops growing after the
        shapes stabilize instead of accumulating per-step garbage."""
        tr = _trainer(True, dropout_p=0.0)
        ar = get_arena()
        tr.train_step(0)
        tr.train_step(1)
        bytes_after_warmup = ar.pooled_bytes
        for step in range(2, STEPS):
            tr.train_step(step)
        assert ar.pooled_bytes == bytes_after_warmup
        assert ag_stats.tape_nodes > 0

    def test_step_allocates_a_fraction_of_the_reference(self):
        """New bytes above the step's starting watermark (pooled arena
        memory, being reused, does not count): median of 2 post-warm-up
        steps, reference / steady.  > 2 is the smoke gate; a full-length
        run of this shape reads >= 10 (about 19 here)."""

        def alloc_peak(steady):
            tr = fig7_small_trainer(steady)
            for step in range(2):
                tr.train_step(step)
            gc.collect()
            peaks = []
            tracemalloc.start()
            try:
                for step in range(2, 4):
                    tracemalloc.reset_peak()
                    start = tracemalloc.get_traced_memory()[0]
                    tr.train_step(step)
                    peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
            return float(np.median(peaks))

        assert alloc_peak(False) / max(alloc_peak(True), 1.0) > 2.0
