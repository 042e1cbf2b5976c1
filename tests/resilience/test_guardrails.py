"""Numeric guardrails: sentinels, spike detector, skip-and-rewind."""

import numpy as np
import pytest

from repro.autograd import lower
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.resilience import counters
from repro.resilience.faults import (
    INF_GRAD,
    NAN_GRAD,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.resilience.guardrails import (
    LOSS_SPIKE,
    NONFINITE_GRAD,
    NONFINITE_LOSS,
    OK,
    GuardrailConfig,
    LossSpikeDetector,
    NumericGuard,
)
from repro.training import Adam, Trainer, TrainerConfig


@pytest.fixture(autouse=True)
def _fresh_counters():
    counters.reset()
    yield
    counters.reset()


class TestCounters:
    def test_increment_get_reset(self):
        assert counters.get("x") == 0
        assert counters.increment("x") == 1
        assert counters.increment("x", by=2) == 3
        assert counters.snapshot() == {"x": 3}
        counters.reset()
        assert counters.get("x") == 0

    def test_summary_lists_counts(self):
        counters.increment("router_fallback")
        assert "router_fallback" in counters.summary()


class TestLossSpikeDetector:
    def test_no_spike_before_min_history(self):
        det = LossSpikeDetector(window=8, factor=2.0, min_history=5)
        for loss in (1.0, 1.1, 0.9, 1.0):
            assert not det.is_spike(100.0)
            det.record(loss)

    def test_detects_spike_over_rolling_median(self):
        det = LossSpikeDetector(window=8, factor=4.0, min_history=5)
        for loss in (1.0, 1.1, 0.9, 1.0, 1.05):
            det.record(loss)
        assert det.median == pytest.approx(1.0)
        assert not det.is_spike(3.9)
        assert det.is_spike(4.1)

    def test_spikes_do_not_poison_window(self):
        """Only recorded (healthy) losses move the median."""
        det = LossSpikeDetector(window=8, factor=2.0, min_history=3)
        for loss in (1.0, 1.0, 1.0):
            det.record(loss)
        assert det.is_spike(50.0)
        assert det.is_spike(50.0)  # still a spike — 50 was never recorded
        assert det.median == pytest.approx(1.0)

    def test_factor_zero_disables(self):
        det = LossSpikeDetector(window=4, factor=0.0, min_history=1)
        det.record(1.0)
        det.record(1.0)
        assert not det.is_spike(1e9)


class TestNumericGuard:
    def test_loss_verdicts(self):
        guard = NumericGuard(GuardrailConfig(spike_min_history=2, spike_factor=4.0))
        assert guard.check_loss(float("nan")) == NONFINITE_LOSS
        assert guard.check_loss(float("inf")) == NONFINITE_LOSS
        assert guard.check_loss(1.0) == OK
        guard.record_good(1.0)
        guard.record_good(1.0)
        assert guard.check_loss(100.0) == LOSS_SPIKE

    def test_rewind_due_after_k_consecutive_bad(self):
        guard = NumericGuard(GuardrailConfig(max_consecutive_bad=3))
        assert not guard.record_bad(NONFINITE_LOSS)
        assert not guard.record_bad(NONFINITE_GRAD)
        assert guard.record_bad(LOSS_SPIKE)
        guard.record_rewind()
        assert guard.bad_streak == 0
        assert guard.rewinds == 1
        assert counters.get("guardrail_rewinds") == 1

    def test_good_step_resets_streak(self):
        guard = NumericGuard(GuardrailConfig(max_consecutive_bad=2))
        guard.record_bad(NONFINITE_LOSS)
        guard.record_good(1.0)
        assert guard.bad_streak == 0
        assert guard.bad_steps == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GuardrailConfig(spike_window=1)
        with pytest.raises(ValueError):
            GuardrailConfig(max_consecutive_bad=0)
        with pytest.raises(ValueError):
            NumericGuard().record_bad("ok")


def _tiny_trainer(injector=None, guardrails=None, steps=8, backend="eager"):
    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    ds = LMDataset(pile.token_stream(8_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    model = TransformerLM(64, 16, 2, 2, 16, rng=0)
    cfg = TrainerConfig(
        global_batch=4,
        micro_batch=4,
        max_steps=steps,
        eval_every=0,
        log_every=1,
        guardrails=guardrails,
        backend=backend,
    )
    return Trainer(
        model,
        train,
        val,
        cfg,
        optimizer=Adam(model.parameters(), lr=1e-3),
        rng=5,
        fault_injector=injector,
    )


class TestTrainerGuardrails:
    def test_injected_nan_grad_skips_step(self):
        injector = FaultInjector(FaultSchedule([FaultEvent(NAN_GRAD, step=2)]))
        tr = _tiny_trainer(injector, GuardrailConfig(), steps=6)
        hist = tr.train()
        assert tr.skipped_steps == 1
        assert tr.guard.verdict_counts[NONFINITE_GRAD] == 1
        assert counters.get("guardrail_nonfinite_grad") == 1
        # Parameters stayed finite and training continued.
        for p in tr.model.parameters():
            assert np.isfinite(p.data).all()
        assert np.isfinite(hist.records[-1].loss)

    def test_k_consecutive_bad_steps_trigger_rewind(self):
        events = [FaultEvent(NAN_GRAD, step=s) for s in (2, 3)]
        injector = FaultInjector(FaultSchedule(events))
        guard_cfg = GuardrailConfig(max_consecutive_bad=2)
        tr = _tiny_trainer(injector, guard_cfg, steps=6)
        tr.train()
        assert tr.guard.rewinds == 1
        assert counters.get("guardrail_rewinds") == 1
        for p in tr.model.parameters():
            assert np.isfinite(p.data).all()

    def test_rewind_restores_last_known_good_parameters(self):
        """After K bad steps, parameters equal the pre-fault snapshot."""
        injector = FaultInjector(
            FaultSchedule([FaultEvent(NAN_GRAD, step=s) for s in (3, 4, 5)])
        )
        tr = _tiny_trainer(
            injector, GuardrailConfig(max_consecutive_bad=3), steps=6
        )
        # Run the three good steps, snapshot reference state.
        for step in range(3):
            tr.train_step(step)
        reference = [p.data.copy() for p in tr.model.parameters()]
        ref_t = tr.optimizer.t
        for step in range(3, 6):
            tr.train_step(step)
        assert tr.guard.rewinds == 1
        for p, ref in zip(tr.model.parameters(), reference):
            np.testing.assert_array_equal(p.data, ref)
        assert tr.optimizer.t == ref_t

    def test_skip_only_guardrails_take_no_snapshot(self):
        """With ``rewind=False`` nothing can restore a snapshot, so none
        is taken — and the trajectory is the rewind-armed run's."""

        def run(rewind):
            injector = FaultInjector(FaultSchedule([FaultEvent(NAN_GRAD, step=2)]))
            tr = _tiny_trainer(injector, GuardrailConfig(rewind=rewind), steps=5)
            tr.train()
            assert tr.skipped_steps == 1 and tr.guard.rewinds == 0
            return tr

        armed, skip_only = run(True), run(False)
        assert armed._snapshot is not None
        assert skip_only._snapshot is None
        for a, b in zip(armed.optimizer.params, skip_only.optimizer.params):
            np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("kind", [NAN_GRAD, INF_GRAD])
@pytest.mark.parametrize(
    "backend",
    [
        "eager",
        "replay",
        pytest.param(
            "cc",
            marks=pytest.mark.skipif(
                not lower.cc_available(), reason="no C toolchain in this environment"
            ),
        ),
    ],
)
def test_nonfinite_gradients_are_skipped_without_guardrails(backend, kind):
    """No guard: the step's gradient norm, which the clip reads anyway,
    is not finite, so the update is skipped instead of poisoning Adam."""
    injector = FaultInjector(FaultSchedule([FaultEvent(kind, step=1)]))
    tr = _tiny_trainer(injector, None, steps=3, backend=backend)
    tr.train()
    assert tr.guard is None
    assert counters.get(f"injected_{kind}") == 1
    assert tr.skipped_steps == 1
    for a in [p.data for p in tr.optimizer.params] + tr.optimizer._m + tr.optimizer._v:
        assert np.isfinite(a).all()
