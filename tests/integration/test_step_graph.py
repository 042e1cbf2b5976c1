"""Captured step graphs: compiled replay must be invisible to training.

``TrainerConfig(backend="replay")`` records the first micro batch of each
signature into a :class:`repro.autograd.StepGraph` and replays the
compiled op schedule on every matching step.  Replay is a pure dispatch
optimization, so every test here asserts **bit-identity** against the
eager run — losses by float equality, parameters and optimizer moments
by ``array_equal`` — with and without the steady-state step, through
guardrail rewinds, and across a checkpoint/resume round trip.
Structural tests cover signature-change recapture, the double-backward
guard that capture's ``retain_graph`` hook relies on, and the memoized
per-topology dispatch metadata the replayed kernels lean on.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, stats as ag_stats
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.observability import registry, tracing
from repro.resilience.faults import (
    NAN_GRAD,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.resilience.guardrails import GuardrailConfig
from repro.sparse import Topology, dispatch
from repro.sparse.ops import segment_meta
from repro.training import Adam, Trainer, TrainerConfig

STEPS = 4


def _trainer(
    backend,
    steady=False,
    injector=None,
    guardrails=None,
    dropout_p=0.1,
    max_steps=STEPS,
    eval_every=2,
    router_factory=None,
    ffn_factory=None,
):
    from repro.core import dMoE

    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    ds = LMDataset(pile.token_stream(6_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    ffn = ffn_factory or (lambda i: dMoE(
        16, 32, num_experts=4, block_size=8, rng=i,
        router=router_factory(i) if router_factory else None,
    ))
    model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, dropout_p=dropout_p, rng=0)
    cfg = TrainerConfig(
        global_batch=8,
        micro_batch=4,
        max_steps=max_steps,
        eval_every=eval_every,
        eval_batches=2,
        log_every=1,
        guardrails=guardrails,
        steady_state=steady,
        backend=backend,
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


def _counters():
    reg = registry()
    return {
        name: reg.counter(f"graph_{name}").value
        for name in ("captures", "replays", "fallbacks")
    }


def _fingerprint(tr, hist):
    return (
        [r.loss for r in hist.records],
        [r.val_loss for r in hist.records],
        [p.data.copy() for p in tr.optimizer.params],
        [m.copy() for m in tr.optimizer._m],
    )


def _assert_same(ref, got):
    assert ref[0] == got[0]  # float equality: bitwise, not approx
    assert ref[1] == got[1]
    for a, b in zip(ref[2], got[2]):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(ref[3], got[3]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("steady", [False, True], ids=["eager-alloc", "steady"])
class TestReplayBitIdentity:
    def test_matches_eager_run(self, steady):
        eager = _trainer("eager", steady=steady)
        ref = _fingerprint(eager, eager.train())

        before = _counters()
        captured = _trainer("replay", steady=steady)
        got = _fingerprint(captured, captured.train())
        after = _counters()

        _assert_same(ref, got)
        # One capture (first micro batch), replays for the rest: 2 micro
        # batches per step x STEPS steps, minus the recorded one.
        assert after["captures"] - before["captures"] == 1
        assert after["replays"] - before["replays"] == 2 * STEPS - 1
        assert after["fallbacks"] == before["fallbacks"]
        assert captured.step_graph is not None


class TestReplayTelemetry:
    def test_tape_nodes_zero_on_replayed_steps(self):
        tr = _trainer("replay", eval_every=0)
        hist = tr.train()
        nodes = [r.tape_nodes for r in hist.records if r.tape_nodes is not None]
        assert len(nodes) == STEPS
        assert nodes[0] > 0  # capture step builds a real tape
        assert all(n == 0 for n in nodes[1:])  # replays never touch it

    def test_replay_span_in_step_breakdown(self):
        tr = _trainer("replay", eval_every=0, max_steps=2)
        with tracing():
            tr.train_step(0)
            assert "forward" in tr.last_phase_times  # capture step is eager
            tr.train_step(1)
            assert "replay" in tr.last_phase_times
            assert "forward" not in tr.last_phase_times


class TestRecapture:
    def test_micro_batch_shape_change_falls_back_and_recaptures(self):
        tr = _trainer("replay", eval_every=0)
        tr.train_step(0)
        first_graph = tr.step_graph
        assert first_graph is not None

        before = _counters()
        tr._micro_batch_captured(tr._next_batch(2))  # micro batch 2 != 4
        after = _counters()
        assert after["fallbacks"] - before["fallbacks"] == 1
        assert after["captures"] - before["captures"] == 1
        assert tr.step_graph is not first_graph
        assert tr.step_graph.signature != first_graph.signature

    def test_tutel_dmoe_guarded_capacity_stays_bit_identical(self):
        """The Fig-7 baseline layer under capture: its capacity is a
        guarded host record, so a shifted per-expert maximum drops the
        graph and recaptures, and replay trains the eager bits.  The
        router starts at zero — every token ties onto expert 0, step 0's
        two micro batches share a capacity — so the run holds a real
        replay beside its recaptures."""
        from repro.moe import DynamicCapacityMoELayer

        def ffn(i):
            layer = DynamicCapacityMoELayer(16, 32, 4, rng=i)
            layer.router.proj.weight.data[...] = 0.0
            return layer

        eager = _trainer("eager", ffn_factory=ffn)
        ref = _fingerprint(eager, eager.train())
        before = _counters()
        captured = _trainer("replay", ffn_factory=ffn)
        _assert_same(ref, _fingerprint(captured, captured.train()))
        after = _counters()
        assert after["replays"] > before["replays"]
        assert after["fallbacks"] > before["fallbacks"]

    def test_guardrail_rewind_invalidates_and_stays_bit_identical(self):
        """NaN-grad skips + snapshot rewind with replay on must converge
        to the exact same state as the eager guardrail run."""

        def run(backend):
            schedule = FaultSchedule(
                [FaultEvent(NAN_GRAD, step=2), FaultEvent(NAN_GRAD, step=3)]
            )
            guard = GuardrailConfig(max_consecutive_bad=2, snapshot_every=1)
            tr = _trainer(
                backend,
                steady=True,
                injector=FaultInjector(schedule),
                guardrails=guard,
                max_steps=6,
                eval_every=3,
            )
            hist = tr.train()
            assert tr.skipped_steps == 2
            assert tr.guard.rewinds >= 1
            return tr, hist

        eager_tr, eager_hist = run("eager")
        cap_tr, cap_hist = run("replay")
        _assert_same(
            _fingerprint(eager_tr, eager_hist), _fingerprint(cap_tr, cap_hist)
        )
        for p in cap_tr.model.parameters():
            assert np.isfinite(p.data).all()


class TestResumeWithCapture:
    def test_checkpoint_roundtrip_mid_replay(self, tmp_path):
        """save() mid-run + fit(resume=...) with capture on reproduces the
        uninterrupted captured run — and the eager run — bit for bit.

        dropout_p=0 and eval_every=0 because per-module dropout RNGs and
        the trailing eval draw are not checkpointed (pre-existing; the
        repo's resume tests run the same way).
        """
        n, total = 2, 4

        def make(backend):
            return _trainer(backend, dropout_p=0.0, max_steps=total, eval_every=0)

        eager = make("eager")
        eager.train()
        straight = make("replay")
        straight.train()

        first = make("replay")
        first.config.max_steps = n
        first.train()
        assert first.step_graph is not None
        path = str(tmp_path / "mid")
        first.save(path, step=n)

        resumed = make("replay")
        resumed.fit(resume=path)

        want = {r.step: r.loss for r in straight.history.records}
        got = {r.step: r.loss for r in resumed.history.records}
        for step in range(n, total):
            assert got[step] == want[step], f"loss diverged at step {step}"
        for ref in (straight, eager):
            for a, b in zip(ref.model.parameters(), resumed.model.parameters()):
                np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(straight.optimizer._m, resumed.optimizer._m):
            np.testing.assert_array_equal(a, b)
        assert straight.rng.random() == resumed.rng.random()

    def test_restore_drops_the_compiled_graph(self, tmp_path):
        tr = _trainer("replay", dropout_p=0.0, max_steps=2, eval_every=0)
        tr.train()
        path = str(tmp_path / "ck")
        tr.save(path, step=2)
        assert tr.step_graph is not None
        tr.restore(path)
        assert tr.step_graph is None  # replay never crosses a restore


class TestDoubleBackwardGuard:
    """Capture compiles the backward schedule from a still-intact tape
    via ``backward(retain_graph=True)``; without it a second walk reads
    contexts whose buffers may be back in the arena, so it must raise."""

    @staticmethod
    def _loss():
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
        y = Tensor(rng.standard_normal((4, 4)).astype(np.float32), requires_grad=True)
        return x, y, ((x @ y) * x).sum()

    def test_second_backward_raises(self):
        x, _, loss = self._loss()
        loss.backward()
        with pytest.raises(RuntimeError, match="consumed|retain_graph"):
            loss.backward()

    def test_retain_graph_allows_and_accumulates(self):
        x, _, loss = self._loss()
        loss.backward(retain_graph=True)
        once = x.grad.copy()
        loss.backward()  # second walk over the retained tape
        np.testing.assert_allclose(x.grad, 2 * once, rtol=1e-6)


class TestDispatchMemoization:
    """Satellite: per-topology kernel metadata is computed once and then
    served from the topology instance on every subsequent kernel call."""

    @staticmethod
    def _topo():
        return Topology.block_diagonal(np.array([2, 1, 3]), np.array([2, 2, 2]), 8)

    def test_plan_groups_memoized_as_plain_ints(self):
        topo = self._topo()
        plan = dispatch.analyze(topo)
        assert plan is not None
        assert dispatch.analyze(topo) is plan  # stashed on the topology
        groups = plan.groups
        assert plan.groups is groups  # cached_property: built once
        assert groups == tuple(
            zip(
                plan.row_start.tolist(),
                plan.row_count.tolist(),
                plan.col_start.tolist(),
                plan.col_count.tolist(),
                plan.val_start.tolist(),
            )
        )
        for entry in groups:
            assert all(type(v) is int for v in entry)

    @pytest.mark.parametrize("transpose", [False, True], ids=["bcsr", "transpose"])
    def test_segment_meta_memoized_and_correct(self, transpose):
        topo = self._topo()
        meta = segment_meta(topo, transpose)
        assert segment_meta(topo, transpose) is meta
        offsets = topo.transpose_row_offsets if transpose else topo.row_offsets
        nonempty, starts = meta
        np.testing.assert_array_equal(
            nonempty, np.flatnonzero(np.diff(offsets) > 0)
        )
        np.testing.assert_array_equal(starts, offsets[nonempty])

    def test_segment_meta_orders_are_independent(self):
        topo = self._topo()
        assert segment_meta(topo, False) is not segment_meta(topo, True)
