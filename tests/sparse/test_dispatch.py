"""Grouped-GEMM dispatch layer: structure detection, path equivalence
against both the per-block kernels and the dense references, dtype
threading, and the stats counters."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.observability import registry
from repro.sparse import (
    BlockSparseMatrix,
    Topology,
    dds,
    dispatch,
    dispatch_mode,
    dsd,
    random_block_sparse,
    sdd,
    stats,
)
from repro.sparse.reference import dds_reference, dsd_reference, sdd_reference
from tests.conftest import random_topology

BS = 4


def _block_diag(rows, cols=None, bs=BS):
    rows = np.asarray(rows)
    cols = np.full(len(rows), 2) if cols is None else np.asarray(cols)
    return Topology.block_diagonal(rows, cols, bs)


# ----------------------------------------------------------------------
# Structure detection
# ----------------------------------------------------------------------
class TestAnalyze:
    def test_block_diagonal_uniform(self):
        topo = _block_diag([2, 3, 1])
        plan = dispatch.analyze(topo)
        assert plan is not None
        assert plan.num_groups == 3
        assert plan.cols_disjoint
        np.testing.assert_array_equal(plan.row_start, [0, 2, 5])
        np.testing.assert_array_equal(plan.row_count, [2, 3, 1])
        np.testing.assert_array_equal(plan.col_start, [0, 2, 4])
        np.testing.assert_array_equal(plan.col_count, [2, 2, 2])
        np.testing.assert_array_equal(plan.val_start, [0, 4, 10])
        assert plan.nnz_blocks == topo.nnz_blocks

    def test_empty_experts_are_skipped(self):
        topo = _block_diag([2, 0, 3, 0])
        plan = dispatch.analyze(topo)
        assert plan.num_groups == 2
        np.testing.assert_array_equal(plan.row_start, [0, 2])
        # Empty experts still consume a column range, so the occupied
        # groups' column starts skip over them.
        np.testing.assert_array_equal(plan.col_start, [0, 4])
        assert plan.cols_disjoint

    def test_variable_column_widths(self):
        topo = _block_diag([1, 2, 1], [3, 1, 2])
        plan = dispatch.analyze(topo)
        assert plan.num_groups == 3
        np.testing.assert_array_equal(plan.col_count, [3, 1, 2])
        assert plan.cols_disjoint

    def test_empty_topology_has_no_plan(self):
        topo = Topology.from_block_mask(np.zeros((2, 2), dtype=bool), BS)
        assert dispatch.analyze(topo) is None

    def test_non_contiguous_rows_have_no_plan(self):
        mask = np.array([[True, False, True], [False, True, False]])
        assert dispatch.analyze(Topology.from_block_mask(mask, BS)) is None

    def test_banded_pattern_groups_per_row(self):
        # Shifting contiguous ranges: valid groups, overlapping columns.
        mask = np.array(
            [
                [True, True, False, False],
                [False, True, True, False],
                [False, False, True, True],
            ]
        )
        plan = dispatch.analyze(Topology.from_block_mask(mask, BS))
        assert plan is not None
        assert plan.num_groups == 3
        assert not plan.cols_disjoint

    def test_dense_matrix_is_one_group(self):
        plan = dispatch.analyze(Topology.dense(3 * BS, 2 * BS, BS))
        assert plan.num_groups == 1
        assert plan.cols_disjoint

    def test_plan_is_cached_per_topology(self):
        topo = _block_diag([1, 1])
        assert dispatch.analyze(topo) is dispatch.analyze(topo)

    def test_duplicate_column_ranges_not_disjoint(self):
        # Two stacked row groups over the same columns must not take the
        # scatter-free trans_s path (their outputs would overwrite).
        mask = np.array([[True, True], [True, True]])
        topo = Topology.from_block_mask(mask, BS)
        plan = dispatch.analyze(topo)
        assert plan.num_groups == 1  # merged: identical ranges, adjacent rows
        mask = np.ones((2, 1), dtype=bool)
        mask_t = Topology.from_block_mask(mask, BS)
        assert dispatch.analyze(mask_t).num_groups == 1


class TestModeControl:
    def test_set_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            dispatch.set_mode("fastest")

    def test_dispatch_mode_restores(self):
        prev = dispatch.get_mode()
        with dispatch_mode("blocked"):
            assert dispatch.get_mode() == "blocked"
        assert dispatch.get_mode() == prev

    def test_auto_skips_fine_grained_groups(self):
        # Single-block groups: below MIN_BLOCKS_PER_GROUP, auto falls back.
        topo = _block_diag([1, 1, 1], [1, 1, 1])
        plan = dispatch.analyze(topo)
        assert plan.mean_blocks_per_group == 1.0
        assert not dispatch.use_grouped(topo, plan, needs_disjoint_cols=False)
        with dispatch_mode("grouped"):
            assert dispatch.use_grouped(topo, plan, needs_disjoint_cols=False)


# ----------------------------------------------------------------------
# Equivalence: grouped path vs per-block path vs dense reference, for
# every transpose variant, on MoE-shaped (ragged) topologies.
# ----------------------------------------------------------------------
RAGGED_CASES = [
    np.array([2, 3, 1]),        # non-uniform groups
    np.array([2, 0, 3]),        # empty expert in the middle
    np.array([0, 0, 4]),        # leading empty experts
    np.array([1, 1, 1, 1]),     # single-block experts
    np.array([5]),              # one expert owns everything
]


@pytest.mark.parametrize("rows", RAGGED_CASES, ids=lambda r: "-".join(map(str, r)))
class TestGroupedEquivalence:
    def _topo(self, rows):
        return _block_diag(rows, np.full(len(rows), 2))

    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_sdd(self, rng, rows, trans_a, trans_b):
        topo = self._topo(rows)
        m, n = topo.shape
        a = rng.standard_normal((7, m) if trans_a else (m, 7))
        b = rng.standard_normal((n, 7) if trans_b else (7, n))
        with dispatch_mode("grouped"):
            got = sdd(a, b, topo, trans_a=trans_a, trans_b=trans_b)
        with dispatch_mode("blocked"):
            blocked = sdd(a, b, topo, trans_a=trans_a, trans_b=trans_b)
        want = sdd_reference(a, b, topo, trans_a=trans_a, trans_b=trans_b)
        np.testing.assert_allclose(got.values, want.values, atol=1e-12)
        np.testing.assert_allclose(got.values, blocked.values, atol=1e-12)

    @pytest.mark.parametrize("trans_s", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_dsd(self, rng, rows, trans_s, trans_b):
        topo = self._topo(rows)
        s = random_block_sparse(topo, rng)
        m, n = topo.shape
        k = m if trans_s else n
        b = rng.standard_normal((9, k) if trans_b else (k, 9))
        with dispatch_mode("grouped"):
            got = dsd(s, b, trans_s=trans_s, trans_b=trans_b)
        with dispatch_mode("blocked"):
            blocked = dsd(s, b, trans_s=trans_s, trans_b=trans_b)
        want = dsd_reference(s, b, trans_s=trans_s, trans_b=trans_b)
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got, blocked, atol=1e-12)

    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_s", [False, True])
    def test_dds(self, rng, rows, trans_a, trans_s):
        topo = self._topo(rows)
        s = random_block_sparse(topo, rng)
        m, n = topo.shape
        k = n if trans_s else m
        a = rng.standard_normal((k, 9) if trans_a else (9, k))
        with dispatch_mode("grouped"):
            got = dds(a, s, trans_a=trans_a, trans_s=trans_s)
        with dispatch_mode("blocked"):
            blocked = dds(a, s, trans_a=trans_a, trans_s=trans_s)
        want = dds_reference(a, s, trans_a=trans_a, trans_s=trans_s)
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got, blocked, atol=1e-12)


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=5),
    st.lists(st.integers(1, 3), min_size=1, max_size=5),
    st.integers(0, 2**31 - 1),
)
def test_property_grouped_equals_blocked(rows, cols, seed):
    """Both dispatch paths agree on arbitrary ragged block-diagonal
    topologies across all eight op variants."""
    rng = np.random.default_rng(seed)
    n_groups = min(len(rows), len(cols))
    rows, cols = np.asarray(rows[:n_groups]), np.asarray(cols[:n_groups])
    topo = Topology.block_diagonal(rows, cols, 2)
    if topo.nnz_blocks == 0 or topo.shape[1] == 0:
        return
    m, n = topo.shape
    s = random_block_sparse(topo, rng)
    a = rng.standard_normal((m, 3))
    b = rng.standard_normal((3, n))
    d_m = rng.standard_normal((m, 4))
    d_n = rng.standard_normal((n, 4))
    with dispatch_mode("grouped"):
        g = [
            sdd(a, b, topo).values,
            dsd(s, d_n),
            dsd(s, d_m, trans_s=True),
            dds(d_n.T, s, trans_s=True),
            dds(d_m.T, s),
        ]
    with dispatch_mode("blocked"):
        p = [
            sdd(a, b, topo).values,
            dsd(s, d_n),
            dsd(s, d_m, trans_s=True),
            dds(d_n.T, s, trans_s=True),
            dds(d_m.T, s),
        ]
    for got, want in zip(g, p):
        np.testing.assert_allclose(got, want, atol=1e-10)


# ----------------------------------------------------------------------
# Dtype threading: float32 in -> float32 out across all eight variants,
# on both dispatch paths.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["grouped", "blocked"])
class TestDtypeThreading:
    def _topo(self):
        return _block_diag([2, 1, 2])

    def test_sdd_all_variants_stay_float32(self, rng, mode):
        topo = self._topo()
        m, n = topo.shape
        for ta in (False, True):
            for tb in (False, True):
                a = rng.standard_normal((7, m) if ta else (m, 7)).astype(np.float32)
                b = rng.standard_normal((n, 7) if tb else (7, n)).astype(np.float32)
                with dispatch_mode(mode):
                    out = sdd(a, b, topo, trans_a=ta, trans_b=tb)
                assert out.values.dtype == np.float32, (ta, tb)

    def test_dsd_all_variants_stay_float32(self, rng, mode):
        topo = self._topo()
        s = BlockSparseMatrix(
            topo, random_block_sparse(topo, rng).values.astype(np.float32)
        )
        m, n = topo.shape
        for ts in (False, True):
            for tb in (False, True):
                k = m if ts else n
                b = rng.standard_normal((9, k) if tb else (k, 9)).astype(np.float32)
                with dispatch_mode(mode):
                    out = dsd(s, b, trans_s=ts, trans_b=tb)
                assert out.dtype == np.float32, (ts, tb)

    def test_dds_all_variants_stay_float32(self, rng, mode):
        topo = self._topo()
        s = BlockSparseMatrix(
            topo, random_block_sparse(topo, rng).values.astype(np.float32)
        )
        m, n = topo.shape
        for ta in (False, True):
            for ts in (False, True):
                k = n if ts else m
                a = rng.standard_normal((k, 9) if ta else (9, k)).astype(np.float32)
                with dispatch_mode(mode):
                    out = dds(a, s, trans_a=ta, trans_s=ts)
                assert out.dtype == np.float32, (ta, ts)

    def test_explicit_dtype_override(self, rng, mode):
        topo = self._topo()
        m, n = topo.shape
        a = rng.standard_normal((m, 7))
        b = rng.standard_normal((7, n))
        with dispatch_mode(mode):
            assert sdd(a, b, topo, dtype=np.float32).values.dtype == np.float32
            s = random_block_sparse(topo, rng)
            assert dsd(s, rng.standard_normal((n, 3)), dtype=np.float32).dtype == np.float32
            assert dds(rng.standard_normal((3, m)), s, dtype=np.float32).dtype == np.float32

    def test_mixed_inputs_use_result_type(self, rng, mode):
        topo = self._topo()
        m, n = topo.shape
        a = rng.standard_normal((m, 7)).astype(np.float32)
        b = rng.standard_normal((7, n))  # float64
        with dispatch_mode(mode):
            assert sdd(a, b, topo).values.dtype == np.float64


# ----------------------------------------------------------------------
# Stats counters
# ----------------------------------------------------------------------
class TestStats:
    def test_paths_and_flops_are_recorded(self, rng):
        topo = _block_diag([2, 2])
        m, n = topo.shape
        a = rng.standard_normal((m, 5))
        b = rng.standard_normal((5, n))
        stats.reset()
        with dispatch_mode("grouped"):
            h = sdd(a, b, topo)
        with dispatch_mode("blocked"):
            dsd(h, rng.standard_normal((n, 3)))
        reg = registry()
        assert reg.counter("sparse/sdd/grouped").value == 1
        assert reg.counter("sparse/dsd/blocked").value == 1
        assert reg.counter("sparse/sdd/flops").value == 2 * topo.nnz * 5
        assert reg.counter("sparse/dsd/flops").value == 2 * topo.nnz * 3
        assert stats.grouped_fraction("sdd") == 1.0
        assert stats.grouped_fraction() == 0.5
        assert "sparse/sdd/grouped" in reg.summary()

    def test_reset_zeroes_everything(self, rng):
        registry().counter("not_sparse").inc()
        stats.record_product(stats.Product("sdd", stats.PATH_BLOCKED), _block_diag([2]), 100)
        stats.record_cache("hits")
        stats.reset()
        counts = registry().snapshot()["counters"]
        assert not any(v for k, v in counts.items() if k.startswith("sparse/"))
        assert counts["not_sparse"] >= 1  # other modules' counts are kept
        assert stats.total_flops() == 0
        assert stats.cache_hit_rate() == 0.0
