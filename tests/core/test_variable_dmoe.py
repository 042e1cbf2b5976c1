"""Variable-sized experts (paper §4.1 future work)."""

import numpy as np
import pytest

from repro.autograd import ACTIVATIONS, Tensor, getitem, scatter_rows
from repro.core import VariableSizedDMoE, dMoE


def _dense_reference(v, x, dy):
    """Per-expert dense MLPs over the tokens the layer just routed to
    each expert (top-1, router weights as constants); returns the output
    and the gradient of every expert parameter."""
    v.zero_grad()
    e, routing = v.experts, v.last_routing
    expert = routing.expert_indices[:, 0]
    weight = routing.expert_weights.data[:, 0]
    xt = Tensor(x)
    out = None
    for k in range(e.num_experts):
        rows, cols = np.flatnonzero(expert == k), e.expert_slice(k)
        h = getitem(xt, rows) @ getitem(e.w1, (slice(None), cols))
        h = ACTIVATIONS[v.activation](h + getitem(e.b1, cols))
        y = h @ getitem(e.w2, cols) + getitem(e.b2, k)
        part = scatter_rows(y * Tensor(weight[rows][:, None]), rows, len(x))
        out = part if out is None else out + part
    out.backward(dy)
    grads = {n: p.grad.copy() for n, p in e.named_parameters()}
    return out.data, grads


class TestConstruction:
    def test_rejects_non_block_multiple_sizes(self):
        with pytest.raises(ValueError):
            VariableSizedDMoE(8, [8, 10], block_size=4)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            VariableSizedDMoE(8, [8, 0], block_size=4)

    def test_column_layout(self):
        v = VariableSizedDMoE(8, [8, 16, 24], block_size=8, rng=0)
        np.testing.assert_array_equal(v.experts.column_starts, [0, 8, 24, 48])
        assert v.experts.expert_slice(1) == slice(8, 24)


class TestForwardBackward:
    def test_output_shape_and_gradients(self, rng):
        v = VariableSizedDMoE(8, [8, 16, 24], block_size=8, rng=0)
        x = Tensor(rng.standard_normal((20, 8)).astype(np.float32), requires_grad=True)
        out, aux = v(x)
        assert out.shape == (20, 8)
        ((out * out).sum() + aux).backward()
        assert all(p.grad is not None for p in v.parameters())
        assert x.grad is not None

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_matches_dense_per_expert_reference(self, rng, activation):
        """Figure 6's step 4 on a variable-width topology against plain
        dense experts — through the fused sparse bias + GELU, and through
        the sparse bias add and a separate activation."""
        v = VariableSizedDMoE(
            8, [8, 16, 24], block_size=8, rng=0, load_balance_coef=0.0,
            activation=activation,
        )
        v.experts.b1.data[...] = rng.standard_normal(48) * 0.1
        v.experts.b2.data[...] = rng.standard_normal((3, 8)) * 0.1
        x, dy = rng.standard_normal((2, 20, 8))
        out, _ = v(Tensor(x))
        out.backward(dy)
        grads = {n: p.grad.copy() for n, p in v.experts.named_parameters()}

        ref_out, ref_grads = _dense_reference(v, x, dy)
        np.testing.assert_allclose(out.data, ref_out, atol=1e-10)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, atol=1e-7, err_msg=name)

    def test_topology_columns_vary_per_expert(self, rng):
        v = VariableSizedDMoE(8, [8, 16], block_size=8, rng=0)
        v(Tensor(rng.standard_normal((20, 8)).astype(np.float32)))
        topo = v.last_topology
        topo.validate()
        assert topo.shape[1] == 8 + 16
        # Expert 1's groups are twice as wide as expert 0's.
        mask = topo.to_block_mask()
        widths = mask.sum(axis=1)
        assert set(widths[widths > 0].tolist()) <= {1, 2}

    def test_equal_sizes_match_uniform_dmoe(self, rng):
        """With all experts the same width, the layer must reproduce the
        uniform dMoE exactly given identical weights."""
        uniform = dMoE(8, 16, 3, block_size=8, rng=3, load_balance_coef=0.01)
        variable = VariableSizedDMoE(
            8, [16, 16, 16], block_size=8, rng=9, load_balance_coef=0.01
        )
        # Map uniform weights into the concatenated layout.
        variable.router.proj.weight.data[...] = uniform.router.proj.weight.data
        variable.experts.w1.data[...] = uniform.experts.w1_flat().data
        variable.experts.b1.data[...] = uniform.experts.b1_flat().data
        variable.experts.w2.data[...] = uniform.experts.w2_flat().data
        variable.experts.b2.data[...] = uniform.experts.b2.data

        x = rng.standard_normal((22, 8))
        out_u, aux_u = uniform(Tensor(x.copy(), dtype=np.float64))
        out_v, aux_v = variable(Tensor(x.copy(), dtype=np.float64))
        np.testing.assert_allclose(out_v.data, out_u.data, atol=1e-10)
        np.testing.assert_allclose(float(aux_v.data), float(aux_u.data), atol=1e-10)

    def test_bigger_expert_does_more_work(self, rng):
        """Routing everything to the wide expert uses more blocks than
        routing to the narrow one."""
        v = VariableSizedDMoE(8, [8, 32], block_size=8, rng=0, load_balance_coef=0.0)
        v.router.proj.weight.data[...] = 0.0
        v.router.proj.weight.data[:, 0] = 0.0  # ties -> expert 0 (narrow)
        x = Tensor(rng.standard_normal((16, 8)).astype(np.float32))
        v(x)
        narrow_blocks = v.last_topology.nnz_blocks
        v.router.proj.weight.data[:, 1] = 100.0  # push everything to expert 1
        # Recompute routing on definite-positive features so expert 1 wins.
        v(Tensor(np.abs(rng.standard_normal((16, 8))).astype(np.float32)))
        wide_blocks = v.last_topology.nnz_blocks
        assert wide_blocks > narrow_blocks

    def test_trains(self, rng):
        from repro.training import Adam

        v = VariableSizedDMoE(8, [8, 16, 24], block_size=8, rng=0)
        opt = Adam(v.parameters(), lr=1e-2)
        x = Tensor(rng.standard_normal((24, 8)).astype(np.float32))
        tgt = Tensor(rng.standard_normal((24, 8)).astype(np.float32))
        losses = []
        for _ in range(30):
            opt.zero_grad()
            out, aux = v(x)
            diff = out - tgt
            loss = (diff * diff).mean() + aux
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0]
