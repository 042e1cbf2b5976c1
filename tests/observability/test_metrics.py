"""MetricsRegistry: instruments, percentiles, the one counter store."""

import numpy as np
import pytest

from repro.autograd import Tensor, bias_gelu, linear_bias
from repro.autograd import stats as ag_stats
from repro.autograd.arena import get_arena
from repro.autograd.lower import toolchain
from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.observability.metrics import (
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.resilience import counters as res_counters
from repro.sparse import stats as sp_stats
from repro.sparse.stats import Product, record_product
from repro.training import Adam, Trainer, TrainerConfig


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("steps")
        c.inc()
        c.inc(4)
        assert reg.counter("steps").value == 5
        assert reg.counter("steps") is c

    def test_gauge_holds_last(self):
        reg = MetricsRegistry()
        reg.gauge("pool").set(3.5)
        reg.gauge("pool").set(1.0)
        assert reg.gauge("pool").value == 1.0

    def test_histogram_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        assert h.count == 100
        assert h.percentile(50) == pytest.approx(50.5)
        s = h.summary()
        assert s["count"] == 100
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]

    def test_histogram_empty_summary(self):
        s = Histogram().summary()
        assert s["count"] == 0 and s["p99"] == 0.0

    def test_histogram_decimates_past_cap(self):
        h = Histogram(max_samples=8)
        for v in range(100):
            h.observe(float(v))
        assert len(h.values) <= 8
        # Count and sum stay exact; percentiles stay representative.
        s = h.summary()
        assert h.count == s["count"] == 100
        assert h.sum == s["sum"] == 4950.0 and s["mean"] == 49.5
        assert h.percentile(100) >= 90.0


class TestRegistry:
    def test_snapshot_is_deep_copy(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        snap = reg.snapshot()
        snap["counters"]["a"] = 999
        assert reg.counter("a").value == 1

    def test_reset_keeps_handles_live(self):
        reg = MetricsRegistry()
        c, g, h = reg.counter("c"), reg.gauge("g"), reg.histogram("h")
        c.inc(3)
        g.set(2.0)
        h.observe(1.0)
        reg.reset()
        assert (c.value, g.value, h.count, h.sum, h.values) == (0, 0.0, 0, 0.0, [])
        c.inc()
        h.observe(5.0)
        assert reg.counter("c").value == 1
        assert reg.histogram("h").summary()["count"] == 1

    def test_snapshot_edit_leaves_live_handle(self):
        reg = MetricsRegistry()
        handle = reg.counter("sparse/sdd/grouped")
        handle.inc(2)
        snap = reg.snapshot()
        snap["counters"]["sparse/sdd/grouped"] = 99
        assert handle.value == reg.counter("sparse/sdd/grouped").value == 2
        handle.inc()
        assert snap["counters"]["sparse/sdd/grouped"] == 99

    def test_summary_renders(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(1.0)
        text = reg.summary()
        assert "counters" in text and "histograms" in text

    def test_empty_summary(self):
        assert MetricsRegistry().summary() == "no metrics recorded"


def _topo():
    from repro.sparse import Topology

    return Topology.block_diagonal(np.array([2, 2]), np.array([2, 2]), 4)


def _grouped_fraction(counts):
    grouped = sum(v for k, v in counts.items() if k.startswith("sparse/") and k.endswith("/grouped"))
    blocked = sum(v for k, v in counts.items() if k.startswith("sparse/") and k.endswith("/blocked"))
    return grouped / (grouped + blocked) if grouped + blocked else 0.0


def _cache_hit_rate(counts):
    hits = counts["sparse/topology_cache/hits"]
    total = hits + counts["sparse/topology_cache/misses"]
    return hits / total if total else 0.0


def _bias_gelu_on_tape(rng):
    """One recorded call of a fused op."""
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    return bias_gelu(x, Tensor(rng.standard_normal(3)))


class TestGlobalRegistry:
    """The kernel, autograd and recovery counts live in the registry."""

    def test_module_counts_live_in_registry(self, rng):
        from repro.sparse import sdd

        registry().reset()
        topo = _topo()
        sdd(rng.standard_normal((16, 3)), rng.standard_normal((3, 16)), topo)
        _bias_gelu_on_tape(rng)
        res_counters.increment("router_fallback")
        counts = registry().snapshot()["counters"]
        assert counts["sparse/sdd/grouped"] + counts["sparse/sdd/blocked"] == 1
        assert counts["sparse/sdd/flops"] == sp_stats.total_flops() == 2 * topo.nnz * 3
        # add + gelu -> one node: the call saves one.
        assert counts["autograd/fused/bias_gelu"] == 1 and ag_stats.nodes_fused() == 1
        assert counts["router_fallback"] == res_counters.get("router_fallback") == 1
        registry().reset()
        assert sp_stats.total_flops() == ag_stats.nodes_fused() == 0
        assert res_counters.get("router_fallback") == 0

    def test_module_counts_use_flat_names(self):
        """The three modules' counts are registry counters under flat names."""
        registry().reset()
        record_product(Product("sdd", sp_stats.PATH_BLOCKED), _topo(), width=3)
        linear_bias(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4)))
        res_counters.increment("router_fallback")
        counts = registry().snapshot()["counters"]
        assert counts["sparse/sdd/blocked"] == 1
        assert counts["sparse/sdd/rows_live"] == counts["sparse/sdd/rows_padded"] == 16
        assert counts["autograd/fused/linear_bias"] == 1
        assert counts["router_fallback"] == 1
        registry().reset()

    def test_registry_reset_zeroes_module_reads(self):
        """``registry().reset()`` zeroes every module read."""
        record_product(Product("dsd", sp_stats.PATH_BLOCKED), _topo(), width=2)
        ag_stats.TAPE_NODES.inc()
        res_counters.increment("collective_retries")
        registry().reset()
        assert sp_stats.total_flops() == 0 and sp_stats.rows_total() == (0, 0)
        assert ag_stats.tape_nodes == 0
        assert res_counters.get("collective_retries") == 0

    def test_cc_run_counts_in_one_registry(self, tmp_path, monkeypatch):
        """Two ``cc`` steps of a dMoE LM whose router always falls back:
        every count is a registry counter, and every module read the
        benchmark takes agrees with it."""
        monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
        toolchain._reset_for_tests()
        hidden, seq, vocab = 16, 8, 32
        model = TransformerLM(
            vocab, hidden, num_layers=1, num_heads=2, max_seq_len=seq, rng=3,
            ffn_factory=lambda i: dMoE(hidden, 32, 4, block_size=4, rng=10 + i),
        )
        model.blocks[0].ffn.router.proj.weight.data[0, 0] = np.nan
        pile = SyntheticPile(PileConfig(vocab_size=vocab, num_domains=2), seed=1)
        data = LMDataset(pile.token_stream(400, seq, rng=2), seq_len=seq)
        trainer = Trainer(
            model, data, rng=4, optimizer=Adam(model.parameters(), lr=1e-3),
            config=TrainerConfig(
                global_batch=2, micro_batch=2, max_steps=10**9, eval_every=0,
                log_every=0, backend="cc",
            ),
        )
        registry().reset()
        try:
            for step in range(2):
                trainer.train_step(step)
                snap = registry().snapshot()
                assert set(snap) == {"counters", "gauges", "histograms"}
                counts = snap["counters"]
                # The reads bench/ takes return the registry's values.
                assert ag_stats.tape_nodes == counts["autograd/tape_nodes"]
                assert ag_stats.reshape_copy_bytes == counts["autograd/reshape_copy_bytes"]
                assert ag_stats.leaf_copy_bytes == counts["autograd/leaf_copy_bytes"]
                assert ag_stats.nodes_fused() == counts["autograd/nodes_fused"]
                assert sp_stats.total_flops() == sum(
                    v for k, v in counts.items() if k.startswith("sparse/") and k.endswith("/flops")
                ) > 0
                assert sp_stats.grouped_fraction() == _grouped_fraction(counts)
                assert sp_stats.cache_hit_rate() == _cache_hit_rate(counts)
                assert res_counters.get("router_fallback") == counts["router_fallback"] == step + 1
                if step == 0:
                    assert counts["autograd/tape_nodes"] > 0  # the captured step tapes
        finally:
            toolchain._reset_for_tests()
        assert registry().counter("graph_replays").value >= 1

        # The trainer's per-step reset zeroes the autograd counts only.
        registry().counter("autograd/tape_nodes").inc()
        before = registry().snapshot()["counters"]
        ag_stats.reset()
        after = registry().snapshot()["counters"]
        assert after.keys() == before.keys()
        assert all(v == 0 for k, v in after.items() if k.startswith("autograd/"))
        kept = {k: v for k, v in before.items() if not k.startswith("autograd/")}
        assert kept == {k: after[k] for k in kept}
        assert kept["router_fallback"] == 2 and kept["sparse/sdd/flops"] > 0

    def test_grouped_fraction_optional_annotation(self):
        import inspect
        import typing

        sig = inspect.signature(sp_stats.grouped_fraction)
        hints = typing.get_type_hints(sp_stats.grouped_fraction)
        assert sig.parameters["op"].default is None
        assert hints["op"] == typing.Optional[str]


class TestSnapshotEditsMoveNoModuleRead:
    """A snapshot is a copy: editing it moves no count a module reads."""

    def test_sparse_reads_unmoved(self):
        sp_stats.reset()
        record_product(Product("sdd", sp_stats.PATH_GROUPED), _topo(), width=3)
        snap = registry().snapshot()
        snap["counters"]["sparse/sdd/grouped"] = 999
        snap["counters"]["sparse/topology_cache/hits"] = 999
        fresh = registry().snapshot()["counters"]
        assert fresh["sparse/sdd/grouped"] == 1
        assert fresh["sparse/topology_cache/hits"] == 0
        assert sp_stats.grouped_fraction("sdd") == 1.0
        assert sp_stats.cache_hit_rate() == 0.0
        sp_stats.reset()

    def test_autograd_reads_unmoved(self, rng):
        ag_stats.reset()
        _bias_gelu_on_tape(rng)
        snap = registry().snapshot()
        snap["counters"]["autograd/fused/bias_gelu"] = 999
        snap["counters"]["autograd/nodes_fused"] = 999
        arena = get_arena().stats()
        arena["hits"] = -1
        assert registry().snapshot()["counters"]["autograd/fused/bias_gelu"] == 1
        assert ag_stats.nodes_fused() == 1
        assert get_arena().stats()["hits"] >= 0
        ag_stats.reset()


def test_observe_all_is_observe_in_turn():
    """One call for a batch keeps the samples, count and sum that one
    ``observe`` per value keeps — across the decimation boundary too."""
    rng = np.random.default_rng(0)
    for start in (0, 10, 13, 15):
        one, batch = Histogram(max_samples=16), Histogram(max_samples=16)
        for v in rng.random(start).tolist():
            one.observe(v)
            batch.observe(v)
        values = rng.random(4).tolist()
        for v in values:
            one.observe(v)
        batch.observe_all(values)
        assert (one.values, one.count, one.sum) == (batch.values, batch.count, batch.sum)
