"""Tier-1 chaos smoke test: dMoE training survives a seeded fault schedule.

A tiny dMoE model trains under fault injection — one NaN-gradient step
and one (transient) collective failure in the simulated data-parallel
all-reduce.  The guardrails skip the poisoned step, the retry policy
recovers the collective, and the run must finish with a finite final
loss close to the fault-free run's.
"""

import numpy as np
import pytest

from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.observability import registry
from repro.resilience import counters
from repro.resilience.faults import (
    NAN_GRAD,
    RANK_FAILURE,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
)
from repro.resilience.guardrails import GuardrailConfig
from repro.training import Adam, Trainer, TrainerConfig

STEPS = 10
NAN_STEP = 3
FAIL_STEP = 6


def _trainer(injector=None):
    from repro.core import dMoE

    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    ds = LMDataset(pile.token_stream(8_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    ffn = lambda i: dMoE(16, 32, num_experts=4, block_size=8, rng=i)
    model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, rng=0)
    cfg = TrainerConfig(
        global_batch=4,
        micro_batch=4,
        max_steps=STEPS,
        eval_every=0,
        log_every=1,
        guardrails=GuardrailConfig(max_consecutive_bad=3),
        dp_world=2,  # gradients round-trip through all_reduce each step
    )
    return Trainer(
        model,
        train,
        val,
        cfg,
        optimizer=Adam(model.parameters(), lr=1e-3),
        rng=9,
        fault_injector=injector,
    )


class TestChaosSmoke:
    def test_seeded_chaos_run_recovers_and_converges(self):
        registry().reset()
        # Baseline: identical seeds, no faults.
        clean = _trainer()
        clean_hist = clean.train()
        clean_final = clean_hist.records[-1].loss

        # Chaos: 1 NaN-gradient step + 1 transient collective failure
        # (fails twice, recovered on the third attempt by the policy).
        schedule = FaultSchedule(
            [
                FaultEvent(NAN_GRAD, step=NAN_STEP),
                FaultEvent(RANK_FAILURE, step=FAIL_STEP, op="all_reduce", count=2),
            ]
        )
        policy = RetryPolicy(max_retries=3)
        injector = FaultInjector(schedule, policy=policy)
        chaos = _trainer(injector)
        chaos_hist = chaos.train()
        chaos_final = chaos_hist.records[-1].loss

        # Both faults fired and both recovery paths ran.
        assert schedule.pending == 0
        assert counters.get("injected_nan_grad") == 1
        assert counters.get("injected_rank_failure") == 2
        assert policy.retries == 2, "collective failure was not retried"
        assert chaos.skipped_steps == 1, "NaN step was not skipped"
        assert chaos.guard.bad_steps == 1

        # The run completed: finite loss, finite parameters, and close
        # to the fault-free trajectory (one skipped update of tolerance).
        assert np.isfinite(chaos_final)
        for p in chaos.model.parameters():
            assert np.isfinite(p.data).all()
        assert np.isfinite([r.loss for r in chaos_hist.records]).all()
        assert chaos_final == pytest.approx(clean_final, rel=0.15)
        # Training still made progress under chaos.
        assert chaos_final < chaos_hist.records[0].loss

    def test_permanent_collective_failure_is_skipped_not_fatal(self):
        """A failure outlasting the retry budget degrades to a skipped
        step instead of killing the run."""
        registry().reset()
        schedule = FaultSchedule(
            [FaultEvent(RANK_FAILURE, step=2, op="all_reduce", count=10)]
        )
        injector = FaultInjector(schedule, policy=RetryPolicy(max_retries=2))
        tr = _trainer(injector)
        hist = tr.train()
        assert counters.get("guardrail_collective_fault") >= 1
        assert np.isfinite(hist.records[-1].loss)
        for p in tr.model.parameters():
            assert np.isfinite(p.data).all()
