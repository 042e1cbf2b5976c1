"""Captured step graphs: compiled replay must be invisible to training.

``TrainerConfig(backend="replay")`` records the first micro batch of each
signature into a :class:`repro.autograd.StepGraph` and replays the
compiled op schedule on every matching step.  Replay is a pure dispatch
optimization: its bit-identity with the eager run — plain, through
guardrail rewinds and across a checkpoint resume — is stated once, over
every rung, in ``test_rung_matrix.py``.  The tests here cover what a
trainer sees of it (telemetry, a restore dropping the graph), a
signature-change recapture, the double-backward guard that capture's
``retain_graph`` hook relies on, and the memoized per-topology dispatch
metadata the replayed kernels lean on.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, stats as ag_stats
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.observability import registry, tracing
from repro.sparse import Topology, dispatch
from repro.sparse.ops import segment_meta
from repro.training import Adam, Trainer, TrainerConfig
from repro.training.step import micro_batch_captured

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
):
    from repro.core import dMoE

    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    ds = LMDataset(pile.token_stream(6_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    ffn = lambda i: dMoE(  # noqa: E731
        16, 32, num_experts=4, block_size=8, rng=i,
        router=router_factory(i) if router_factory else None,
    )
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
        micro_batch_captured(tr.state, tr._next_batch(2))  # micro batch 2 != 4
        after = _counters()
        assert after["fallbacks"] - before["fallbacks"] == 1
        assert after["captures"] - before["captures"] == 1
        assert tr.step_graph is not first_graph
        assert tr.step_graph.signature != first_graph.signature


class TestResumeWithCapture:
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
