"""Kernel correctness: every op/transpose variant against the dense
reference, over random topologies (the §5.1 product table)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sparse import (
    BlockSparseMatrix,
    Topology,
    add_bias_columns,
    dds,
    dsd,
    random_block_sparse,
    sdd,
)
from repro.sparse.reference import dds_reference, dsd_reference, sdd_reference
from tests.conftest import random_topology

BS = 4


def _operands_sdd(rng, topo, k, trans_a, trans_b):
    m, n = topo.shape
    a = rng.standard_normal((k, m) if trans_a else (m, k))
    b = rng.standard_normal((n, k) if trans_b else (k, n))
    return a, b


class TestSDD:
    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_matches_reference(self, rng, trans_a, trans_b):
        topo = random_topology(rng, 5, 6, BS, 0.5)
        a, b = _operands_sdd(rng, topo, 7, trans_a, trans_b)
        got = sdd(a, b, topo, trans_a=trans_a, trans_b=trans_b)
        want = sdd_reference(a, b, topo, trans_a=trans_a, trans_b=trans_b)
        np.testing.assert_allclose(got.values, want.values, atol=1e-12)

    def test_inner_dim_need_not_be_block_multiple(self, rng):
        topo = random_topology(rng, 3, 3, BS, 0.7)
        a, b = _operands_sdd(rng, topo, 5, False, False)
        got = sdd(a, b, topo)
        np.testing.assert_allclose(
            got.values, sdd_reference(a, b, topo).values, atol=1e-12
        )

    def test_empty_topology(self, rng):
        topo = Topology.from_block_mask(np.zeros((2, 2), dtype=bool), BS)
        a, b = _operands_sdd(rng, topo, 4, False, False)
        assert sdd(a, b, topo).values.shape == (0, BS, BS)

    def test_shape_mismatch_raises(self, rng):
        topo = random_topology(rng, 3, 3, BS, 0.7)
        with pytest.raises(ValueError):
            sdd(np.zeros((topo.shape[0] + BS, 4)), np.zeros((4, topo.shape[1])), topo)

    def test_inner_mismatch_raises(self, rng):
        topo = random_topology(rng, 3, 3, BS, 0.7)
        with pytest.raises(ValueError):
            sdd(np.zeros((topo.shape[0], 4)), np.zeros((5, topo.shape[1])), topo)

    def test_only_sampled_blocks_computed(self, rng):
        """SDD output is exactly the dense product masked by topology."""
        topo = random_topology(rng, 4, 4, BS, 0.3)
        a, b = _operands_sdd(rng, topo, 6, False, False)
        from repro.sparse import element_mask

        dense = np.where(element_mask(topo), a @ b, 0.0)
        np.testing.assert_allclose(sdd(a, b, topo).to_dense(), dense, atol=1e-12)


class TestDSD:
    @pytest.mark.parametrize("trans_s", [False, True])
    @pytest.mark.parametrize("trans_b", [False, True])
    def test_matches_reference(self, rng, trans_s, trans_b):
        topo = random_topology(rng, 5, 6, BS, 0.5)
        s = random_block_sparse(topo, rng)
        m, n = topo.shape
        k = m if trans_s else n
        b = rng.standard_normal((9, k) if trans_b else (k, 9))
        got = dsd(s, b, trans_s=trans_s, trans_b=trans_b)
        np.testing.assert_allclose(
            got, dsd_reference(s, b, trans_s=trans_s, trans_b=trans_b), atol=1e-12
        )

    def test_empty_rows_give_zero_output(self, rng):
        mask = np.zeros((3, 2), dtype=bool)
        mask[1] = True  # only middle block-row occupied
        topo = Topology.from_block_mask(mask, BS)
        s = random_block_sparse(topo, rng)
        out = dsd(s, rng.standard_normal((topo.shape[1], 5)))
        assert np.all(out[:BS] == 0) and np.all(out[2 * BS :] == 0)
        assert np.abs(out[BS : 2 * BS]).max() > 0

    def test_inner_mismatch_raises(self, rng):
        topo = random_topology(rng, 3, 3, BS, 0.7)
        s = random_block_sparse(topo, rng)
        with pytest.raises(ValueError):
            dsd(s, np.zeros((topo.shape[1] + 1, 4)))

    def test_empty_topology_zero_output(self, rng):
        topo = Topology.from_block_mask(np.zeros((2, 3), dtype=bool), BS)
        s = BlockSparseMatrix.zeros(topo)
        out = dsd(s, rng.standard_normal((topo.shape[1], 4)))
        assert out.shape == (topo.shape[0], 4)
        assert np.all(out == 0)


class TestDDS:
    @pytest.mark.parametrize("trans_a", [False, True])
    @pytest.mark.parametrize("trans_s", [False, True])
    def test_matches_reference(self, rng, trans_a, trans_s):
        topo = random_topology(rng, 5, 6, BS, 0.5)
        s = random_block_sparse(topo, rng)
        m, n = topo.shape
        k = n if trans_s else m
        a = rng.standard_normal((k, 9) if trans_a else (9, k))
        got = dds(a, s, trans_a=trans_a, trans_s=trans_s)
        np.testing.assert_allclose(
            got, dds_reference(a, s, trans_a=trans_a, trans_s=trans_s), atol=1e-12
        )

    def test_inner_mismatch_raises(self, rng):
        topo = random_topology(rng, 3, 3, BS, 0.7)
        s = random_block_sparse(topo, rng)
        with pytest.raises(ValueError):
            dds(np.zeros((4, topo.shape[0] + 1)), s)


class TestValueHelpers:
    def test_add_bias_columns(self, rng):
        topo = random_topology(rng, 3, 4, BS, 0.6)
        s = random_block_sparse(topo, rng)
        bias = rng.standard_normal(topo.shape[1])
        out = add_bias_columns(s, bias)
        from repro.sparse import element_mask

        want = np.where(element_mask(topo), s.to_dense() + bias, 0.0)
        np.testing.assert_allclose(out.to_dense(), want, atol=1e-12)

    def test_add_bias_shape_check(self, rng):
        topo = random_topology(rng, 3, 4, BS, 0.6)
        s = random_block_sparse(topo, rng)
        with pytest.raises(ValueError):
            add_bias_columns(s, np.zeros(topo.shape[1] + 1))


class TestMoEShapedTopologies:
    """The kernels on the exact Figure-3C structures the dMoE produces."""

    def test_block_diagonal_expert_computation(self, rng):
        # 3 experts with 2/0/3 padded token blocks, ffn = 2 blocks wide.
        topo = Topology.block_diagonal(np.array([2, 0, 3]), np.array([2, 2, 2]), BS)
        m, n = topo.shape
        x = rng.standard_normal((m, 6))
        w1 = rng.standard_normal((6, n))
        h = sdd(x, w1, topo)
        np.testing.assert_allclose(
            h.values, sdd_reference(x, w1, topo).values, atol=1e-12
        )
        w2 = rng.standard_normal((n, 6))
        y = dsd(h, w2)
        np.testing.assert_allclose(y, dsd_reference(h, w2), atol=1e-12)

    def test_block_diagonal_is_per_expert_matmul(self, rng):
        """Each expert's output only depends on its own weight slice."""
        topo = Topology.block_diagonal(np.array([1, 1]), np.array([1, 1]), BS)
        x = rng.standard_normal((2 * BS, 3))
        w = rng.standard_normal((3, 2 * BS))
        h = sdd(x, w, topo).to_dense()
        # Expert 0: rows 0:BS x cols 0:BS from w[:, :BS] only.
        np.testing.assert_allclose(h[:BS, :BS], x[:BS] @ w[:, :BS], atol=1e-12)
        np.testing.assert_allclose(h[BS:, BS:], x[BS:] @ w[:, BS:], atol=1e-12)
        assert np.all(h[:BS, BS:] == 0)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.floats(0.1, 1.0),
    st.integers(0, 2**31 - 1),
)
def test_property_sdd_dsd_roundtrip_identity(br, bc, density, seed):
    """DSD(SDD(x, I), I) restricted to occupied rows reproduces x-masked
    products: composing the kernels agrees with dense composition."""
    rng = np.random.default_rng(seed)
    mask = rng.random((br, bc)) < density
    if not mask.any():
        return
    topo = Topology.from_block_mask(mask, 2)
    m, n = topo.shape
    x = rng.standard_normal((m, 3))
    w1 = rng.standard_normal((3, n))
    w2 = rng.standard_normal((n, 5))
    h = sdd(x, w1, topo)
    got = dsd(h, w2)
    want = h.to_dense() @ w2
    np.testing.assert_allclose(got, want, atol=1e-10)


@given(st.integers(0, 2**31 - 1))
def test_property_all_transpose_paths_consistent(seed):
    """A^T paths equal materialized transposes for every kernel."""
    rng = np.random.default_rng(seed)
    mask = rng.random((3, 4)) < 0.5
    topo = Topology.from_block_mask(mask, 2)
    s = random_block_sparse(topo, rng)
    m, n = topo.shape
    b = rng.standard_normal((m, 3))
    np.testing.assert_allclose(
        dsd(s, b, trans_s=True), s.to_dense().T @ b, atol=1e-10
    )
    a = rng.standard_normal((3, n))
    np.testing.assert_allclose(
        dds(a, s, trans_s=True), a @ s.to_dense().T, atol=1e-10
    )
