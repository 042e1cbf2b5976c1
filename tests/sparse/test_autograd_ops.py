"""Gradient correctness for the autograd-wrapped kernels: the backward
passes must issue exactly the right transposed products (§5.1)."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, relu
from repro.sparse import (
    BlockSparseMatrix,
    Topology,
    dsd,
    dsd_mm,
    sdd,
    sdd_mm,
    sparse_bias_add,
)
from tests.conftest import random_topology

BS = 4


class TestSddMM:
    def test_forward_matches_kernel(self, rng):
        topo = random_topology(rng, 4, 5, BS, 0.5)
        x = rng.standard_normal((topo.shape[0], 6))
        w = rng.standard_normal((6, topo.shape[1]))
        out = sdd_mm(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64), topo)
        np.testing.assert_allclose(out.data, sdd(x, w, topo).values)

    def test_gradients(self, rng):
        topo = random_topology(rng, 3, 4, BS, 0.6)
        x = rng.standard_normal((topo.shape[0], 5))
        w = rng.standard_normal((5, topo.shape[1]))
        check_gradients(lambda a, b: sdd_mm(a, b, topo), [x, w])

    def test_gradients_empty_rows(self, rng):
        mask = np.zeros((3, 2), dtype=bool)
        mask[0] = True
        topo = Topology.from_block_mask(mask, BS)
        x = rng.standard_normal((topo.shape[0], 5))
        w = rng.standard_normal((5, topo.shape[1]))
        check_gradients(lambda a, b: sdd_mm(a, b, topo), [x, w])


class TestDsdMM:
    def test_forward_matches_kernel(self, rng):
        topo = random_topology(rng, 4, 5, BS, 0.5)
        values = rng.standard_normal((topo.nnz_blocks, BS, BS))
        w = rng.standard_normal((topo.shape[1], 3))
        out = dsd_mm(Tensor(values, dtype=np.float64), Tensor(w, dtype=np.float64), topo)
        np.testing.assert_allclose(
            out.data, dsd(BlockSparseMatrix(topo, values), w)
        )

    def test_gradients(self, rng):
        topo = random_topology(rng, 3, 4, BS, 0.6)
        values = rng.standard_normal((topo.nnz_blocks, BS, BS))
        w = rng.standard_normal((topo.shape[1], 3))
        check_gradients(lambda v, b: dsd_mm(v, b, topo), [values, w])


class TestSparseBiasAdd:
    def test_gradients(self, rng):
        topo = random_topology(rng, 3, 4, BS, 0.6)
        values = rng.standard_normal((topo.nnz_blocks, BS, BS))
        bias = rng.standard_normal(topo.shape[1])
        check_gradients(lambda v, b: sparse_bias_add(v, b, topo), [values, bias])


class TestTwoLayerExpertStack:
    """The full Figure-6 compute path: SDD -> act -> DSD, end to end."""

    def test_full_pipeline_gradients(self, rng):
        topo = Topology.block_diagonal(np.array([1, 2]), np.array([2, 2]), BS)
        m, n = topo.shape
        x = rng.standard_normal((m, 6))
        w1 = rng.standard_normal((6, n))
        b1 = rng.standard_normal(n)
        w2 = rng.standard_normal((n, 6))

        def pipeline(x, w1, b1, w2):
            h = sdd_mm(x, w1, topo)
            h = sparse_bias_add(h, b1, topo)
            h = relu(h)
            return dsd_mm(h, w2, topo)

        check_gradients(pipeline, [x, w1, b1, w2])

    def test_pipeline_matches_dense_per_expert(self, rng):
        """Block-diagonal SDD->DSD equals running each expert densely."""
        topo = Topology.block_diagonal(np.array([2, 1]), np.array([1, 1]), BS)
        m, n = topo.shape
        x = rng.standard_normal((m, 3))
        w1 = rng.standard_normal((3, n))
        w2 = rng.standard_normal((n, 3))
        h = sdd_mm(Tensor(x, dtype=np.float64), Tensor(w1, dtype=np.float64), topo)
        y = dsd_mm(h, Tensor(w2, dtype=np.float64), topo).data
        # Expert 0: token rows 0:2*BS use w1[:, :BS], w2[:BS].
        e0 = (x[: 2 * BS] @ w1[:, :BS]) @ w2[:BS]
        e1 = (x[2 * BS :] @ w1[:, BS:]) @ w2[BS:]
        np.testing.assert_allclose(y[: 2 * BS], e0, atol=1e-10)
        np.testing.assert_allclose(y[2 * BS :], e1, atol=1e-10)
