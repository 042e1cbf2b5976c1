"""§5.2's kernel property on this machine: cost follows occupied blocks,
not the dense grid.

Unlike the figure benchmarks (which model the A100), these time the
library's actual NumPy kernels — the numbers downstream users of this
implementation experience.  The structural assertions check that cost
scales with *occupied* blocks, not with the dense grid: the algorithmic
property the paper's block-sparse kernels (§5.2) rest on.
"""

import numpy as np
import pytest

from repro.sparse import Topology, dsd, random_block_sparse, sdd
from repro.utils.timing import Timer

BS = 16
HIDDEN = 64


def _diag_topology(num_experts, blocks_per_expert, ffn_blocks=4):
    return Topology.block_diagonal(
        np.full(num_experts, blocks_per_expert),
        np.full(num_experts, ffn_blocks),
        BS,
    )


def _operands(topo, rng):
    x = rng.standard_normal((topo.shape[0], HIDDEN)).astype(np.float32)
    w = rng.standard_normal((HIDDEN, topo.shape[1])).astype(np.float32)
    return x, w


class TestSddScaling:
    def test_sdd_8_experts(self, benchmark):
        rng = np.random.default_rng(0)
        topo = _diag_topology(8, 8)
        x, w = _operands(topo, rng)
        out = benchmark(lambda: sdd(x, w, topo))
        assert out.nnz_blocks == topo.nnz_blocks

    def test_sdd_64_experts_same_work(self, benchmark):
        """64 experts with 1 block each = same nnz as 8 experts with 8:
        cost tracks nnz, not the (64x bigger) dense grid."""
        rng = np.random.default_rng(0)
        topo = _diag_topology(64, 1)
        x, w = _operands(topo, rng)
        out = benchmark(lambda: sdd(x, w, topo))
        assert out.nnz_blocks == _diag_topology(8, 8).nnz_blocks

    def test_cost_independent_of_dense_grid(self, benchmark):
        """Direct timing comparison (one benchmark round wraps it all)."""
        benchmark.pedantic(self._compare_grids, rounds=1, iterations=1)

    @staticmethod
    def _compare_grids():
        rng = np.random.default_rng(0)
        few = _diag_topology(8, 8)
        many = _diag_topology(64, 1)
        assert few.nnz_blocks == many.nnz_blocks
        assert many.block_cols == 8 * few.block_cols  # much bigger grid

        x1, w1 = _operands(few, rng)
        x2, w2 = _operands(many, rng)
        sdd(x1, w1, few), sdd(x2, w2, many)  # warmup
        t1, t2 = Timer(), Timer()
        for _ in range(5):
            with t1:
                sdd(x1, w1, few)
            with t2:
                sdd(x2, w2, many)
        # Equal nonzero work: within 3x despite a 64x denser grid being
        # "virtually" present (generous bound for CPU timer noise).
        assert t2.mean < 3 * t1.mean + 1e-3


class TestDsdScaling:
    def test_dsd_forward(self, benchmark):
        rng = np.random.default_rng(0)
        topo = _diag_topology(8, 8)
        s = random_block_sparse(topo, rng, dtype=np.float32)
        b = rng.standard_normal((topo.shape[1], HIDDEN)).astype(np.float32)
        out = benchmark(lambda: dsd(s, b))
        assert out.shape == (topo.shape[0], HIDDEN)

    def test_dsd_transposed_via_index(self, benchmark):
        rng = np.random.default_rng(0)
        topo = _diag_topology(8, 8)
        s = random_block_sparse(topo, rng, dtype=np.float32)
        b = rng.standard_normal((topo.shape[0], HIDDEN)).astype(np.float32)
        out = benchmark(lambda: dsd(s, b, trans_s=True))
        assert out.shape == (topo.shape[1], HIDDEN)


class TestTopologyConstruction:
    def test_make_topology_warm_cache(self, benchmark):
        """Steady-state cost: repeated routing layouts hit the LRU cache,
        so the per-step metadata cost is one key build + dict lookup."""
        from repro.core import make_topology
        from repro.core.topology_builder import clear_topology_cache
        from repro.moe import make_padded_plan
        from repro.observability import registry
        from repro.sparse import stats

        rng = np.random.default_rng(0)
        indices = rng.integers(0, 64, (8192, 1))
        plan = make_padded_plan(indices, 64, 128)
        clear_topology_cache()
        stats.reset()

        topo = benchmark(lambda: make_topology(plan, 2048))
        topo.validate()
        hits = registry().counter("sparse/topology_cache/hits").value
        misses = registry().counter("sparse/topology_cache/misses").value
        assert misses == 1 and hits >= 1
        print(f"\ntopology cache: {hits} hits / {misses} miss")

    def test_make_topology_cold(self, benchmark):
        """§5.2: even uncached, metadata construction must be cheap (it
        amortizes over six matrix products)."""
        from repro.moe import make_padded_plan
        from repro.sparse import Topology

        rng = np.random.default_rng(0)
        indices = rng.integers(0, 64, (8192, 1))
        plan = make_padded_plan(indices, 64, 128)

        topo = benchmark(
            lambda: Topology.block_diagonal(
                plan.blocks_per_expert, np.full(64, 2048 // 128), 128
            )
        )
        topo.validate()
