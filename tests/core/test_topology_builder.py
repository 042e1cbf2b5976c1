import numpy as np
import pytest

from repro.core import expert_of_padded_row, make_topology
from repro.core.topology_builder import (
    TOPOLOGY_CACHE_SIZE,
    cached_block_diagonal_topology,
    clear_topology_cache,
    topology_cache_len,
)
from repro.moe import make_padded_plan
from repro.observability import registry
from repro.sparse import dispatch, stats


class TestMakeTopology:
    def test_figure_3c_structure(self):
        """Variable block rows per expert, fixed ffn columns (Fig 3C)."""
        idx = np.array([[0]] * 5 + [[2]] * 1)  # expert1 empty
        plan = make_padded_plan(idx, 3, block_size=4)
        topo = make_topology(plan, ffn_hidden_size=8)
        topo.validate()
        # expert0: ceil(5/4)=2 block rows; expert2: 1; each 2 block cols.
        assert topo.nnz_blocks == (2 + 0 + 1) * 2
        assert topo.shape == (plan.total_padded, 3 * 8)

    def test_block_diagonal_disjoint_columns(self):
        idx = np.array([[0], [1]])
        plan = make_padded_plan(idx, 2, block_size=2)
        topo = make_topology(plan, ffn_hidden_size=4)
        mask = topo.to_block_mask()
        assert mask[:1, :2].all() and mask[1:, 2:].all()
        assert not mask[:1, 2:].any() and not mask[1:, :2].any()

    def test_rejects_ffn_not_multiple_of_block(self):
        plan = make_padded_plan(np.array([[0]]), 1, block_size=4)
        with pytest.raises(ValueError):
            make_topology(plan, ffn_hidden_size=6)


class TestTopologyCache:
    def setup_method(self):
        clear_topology_cache()
        stats.reset()

    def test_repeated_layout_returns_same_object(self):
        idx = np.array([[0]] * 5 + [[2]] * 1)
        plan_a = make_padded_plan(idx, 3, block_size=4)
        plan_b = make_padded_plan(idx, 3, block_size=4)
        topo_a = make_topology(plan_a, ffn_hidden_size=8)
        topo_b = make_topology(plan_b, ffn_hidden_size=8)
        # Per-call live-row views over one cached entry: the index
        # arrays and the memoized dispatch metadata are shared.
        assert topo_a == topo_b
        assert topo_a.row_offsets is topo_b.row_offsets
        assert topo_a.memo is topo_b.memo
        assert dispatch.analyze(topo_a) is dispatch.analyze(topo_b)
        np.testing.assert_array_equal(topo_a.live_rows, [5, 1])
        snap = {e: registry().counter(f"sparse/topology_cache/{e}").value
                for e in ("hits", "misses", "evictions")}
        assert snap == {"hits": 1, "misses": 1, "evictions": 0}
        assert stats.cache_hit_rate() == 0.5

    def test_different_layouts_are_distinct(self):
        a = cached_block_diagonal_topology(np.array([1, 2]), 2, 4)
        b = cached_block_diagonal_topology(np.array([2, 1]), 2, 4)
        assert a is not b
        assert topology_cache_len() == 2

    def test_scalar_and_array_columns_share_entries(self):
        a = cached_block_diagonal_topology(np.array([1, 2]), 3, 4)
        b = cached_block_diagonal_topology(np.array([1, 2]), np.array([3, 3]), 4)
        # Uniform widths hash differently as scalar vs per-group key, but
        # both produce valid equal topologies.
        assert a == b

    def test_lru_eviction(self):
        for i in range(TOPOLOGY_CACHE_SIZE + 3):
            cached_block_diagonal_topology(np.array([1 + i]), 1, 2)
        assert topology_cache_len() == TOPOLOGY_CACHE_SIZE
        assert registry().counter("sparse/topology_cache/evictions").value == 3

    def test_cached_topology_is_valid_and_plan_warmed(self):
        topo = cached_block_diagonal_topology(np.array([2, 0, 3]), 2, 4)
        topo.validate()
        assert {"dispatch_plan", "dispatch_group_table"} <= set(topo.memo)
        assert dispatch.analyze(topo).num_groups == 2


class TestExpertOfPaddedRow:
    def test_repeats_by_padded_counts(self):
        idx = np.array([[0]] * 3 + [[1]] * 1)
        plan = make_padded_plan(idx, 2, block_size=4)
        rows = expert_of_padded_row(plan)
        assert len(rows) == plan.total_padded
        np.testing.assert_array_equal(rows, [0, 0, 0, 0, 1, 1, 1, 1])
