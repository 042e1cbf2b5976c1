"""Failure injection: corrupted inputs fail loudly, not silently."""

import os

import numpy as np
import pytest

from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.nn import Linear, Sequential
from repro.training import Adam
from tests.conftest import shard_file


class TestCheckpointFailures:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope"), Sequential(Linear(2, 2, rng=0)))

    def test_truncated_file_raises(self, tmp_path):
        path = str(tmp_path / "broken")
        m = Sequential(Linear(2, 2, rng=0))
        save_checkpoint(path, m)
        victim = shard_file(path)
        os.truncate(victim, os.path.getsize(victim) // 2)
        with pytest.raises(Exception):
            load_checkpoint(path, Sequential(Linear(2, 2, rng=0)))

    def test_wrong_architecture_raises(self, tmp_path):
        path = str(tmp_path / "a")
        save_checkpoint(path, Sequential(Linear(2, 2, rng=0)))
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(path, Sequential(Linear(3, 3, rng=0)))


class TestShapeErrorsSurface:
    def test_dmoe_wrong_hidden_raises(self, rng):
        from repro.autograd import Tensor
        from repro.core import dMoE

        layer = dMoE(16, 32, 4, block_size=8, rng=0)
        with pytest.raises(Exception):
            layer(Tensor(rng.standard_normal((8, 17)).astype(np.float32)))

    def test_sparse_values_shape_enforced(self, rng):
        from repro.sparse import BlockSparseMatrix, Topology

        topo = Topology.dense(8, 8, 4)
        with pytest.raises(ValueError):
            BlockSparseMatrix(topo, np.zeros((topo.nnz_blocks, 4, 5)))

    def test_optimizer_handles_partial_graph(self, rng):
        """Parameters untouched by the loss simply keep grad None."""
        from repro.autograd import Tensor

        net = Sequential(Linear(4, 4, rng=0), Linear(4, 4, rng=1))
        opt = Adam(net.parameters(), lr=0.1)
        # Only the first layer participates.
        out = net.layers[0](Tensor(rng.standard_normal((2, 4)).astype(np.float32)))
        out.sum().backward()
        before = net.layers[1].weight.data.copy()
        opt.step()
        np.testing.assert_array_equal(net.layers[1].weight.data, before)
