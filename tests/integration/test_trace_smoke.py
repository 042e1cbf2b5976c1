"""Traced-training smoke: the observability layer's three contracts at
integration scale (see ``docs/observability.md``).

1. **Tracing is free**: a traced run and an untraced run from the same
   seed produce bit-identical losses and final parameters — spans read
   ``time.perf_counter`` only, never RNG or tensor data.
2. **The breakdown is complete**: every training step's ``phase_times``
   sum to within 10% of its ``step_time``.
3. **Disabled means off**: with no tracer installed the hooks record
   nothing and the step still surfaces ``step_time``.
"""

import numpy as np
import pytest

from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.observability.export import chrome_trace, validate_chrome_trace
from repro.observability.tracing import Tracer, get_tracer, tracing
from repro.training import Adam, Trainer, TrainerConfig
from repro.utils.rng import seed_all

VOCAB = 64
HID = 16
SEQ = 16
STEPS = 4


def _data():
    pile = SyntheticPile(
        PileConfig(vocab_size=VOCAB, num_domains=4, branching=4), seed=11
    )
    ds = LMDataset(pile.token_stream(12_000, 32), seq_len=SEQ)
    return ds.split(0.1)


def _train(tracer=None):
    seed_all(0)
    model = TransformerLM(
        VOCAB, HID, num_layers=2, num_heads=2, max_seq_len=SEQ,
        ffn_factory=lambda i: dMoE(HID, 32, 4, block_size=8, rng=i),
        rng=0,
    )
    train, val = _data()
    cfg = TrainerConfig(
        global_batch=8, micro_batch=4, max_steps=STEPS,
        eval_every=0, log_every=1,
    )
    tr = Trainer(model, train, val, cfg, optimizer=Adam(model.parameters(), lr=3e-3))
    if tracer is None:
        hist = tr.train()
    else:
        with tracing(tracer):
            hist = tr.train()
    params = [p.data.copy() for p in model.parameters()]
    return hist, params


@pytest.fixture(scope="module")
def runs():
    plain_hist, plain_params = _train()
    tracer = Tracer()
    traced_hist, traced_params = _train(tracer)
    return plain_hist, plain_params, traced_hist, traced_params, tracer


class TestTracingIsFree:
    def test_bit_identical_losses(self, runs):
        plain_hist, _, traced_hist, _, _ = runs
        assert list(plain_hist.losses) == list(traced_hist.losses)

    def test_bit_identical_parameters(self, runs):
        _, plain_params, _, traced_params, _ = runs
        assert len(plain_params) == len(traced_params)
        for a, b in zip(plain_params, traced_params):
            assert np.array_equal(a, b)


class TestBreakdown:
    def test_one_root_span_per_step(self, runs):
        *_, tracer = runs
        steps = tracer.roots("step")
        assert len(steps) == STEPS >= 3
        assert [s.args["step"] for s in steps] == list(range(STEPS))

    def test_phase_times_cover_step_time(self, runs):
        _, _, traced_hist, _, _ = runs
        step_records = [r for r in traced_hist.records if r.step < STEPS]
        assert len(step_records) == STEPS
        for rec in step_records:
            assert rec.step_time is not None and rec.phase_times
            covered = sum(rec.phase_times.values())
            assert covered <= rec.step_time * (1 + 1e-6)
            assert covered > 0.9 * rec.step_time, (
                f"step {rec.step}: phases cover only "
                f"{covered / rec.step_time * 100:.1f}% of the step"
            )

    def test_expected_phases_present(self, runs):
        _, _, traced_hist, _, _ = runs
        phases = set(traced_hist.records[0].phase_times)
        assert {"forward", "backward", "optimizer"} <= phases

    def test_moe_spans_nested_under_forward(self, runs):
        *_, tracer = runs
        step_moe = [
            s for s in tracer.spans
            if s.name == "moe" and s.path.startswith("step/")
        ]
        assert step_moe
        assert all(s.path == "step/forward/moe" for s in step_moe)
        assert tracer.total("step/forward/moe/route") > 0.0
        # The closing evaluation traces too, under its own root.
        assert tracer.total("eval/moe") > 0.0

    def test_chrome_export_schema_valid(self, runs):
        *_, tracer = runs
        events = validate_chrome_trace(chrome_trace(tracer))
        assert len(events) == len(tracer.spans)


class TestDisabledIsOff:
    def test_untraced_run_recorded_no_spans(self, runs):
        # The plain run in the fixture executed with no tracer installed;
        # a fresh tracer installed *after* it must stay empty.
        assert get_tracer() is None
        t = Tracer()
        assert t.spans == [] and t.counter_samples == []

    def test_untraced_records_still_have_step_time(self, runs):
        plain_hist, *_ = runs
        step_records = [r for r in plain_hist.records if r.step < STEPS]
        assert all(r.step_time is not None for r in step_records)
        assert all(r.phase_times is None for r in step_records)
