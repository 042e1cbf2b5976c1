import numpy as np
import pytest

from repro.autograd import Tensor
from repro.moe import DynamicCapacityMoELayer, ExpertWeights, MoELayer


class TestExpertWeights:
    def test_flat_views_share_storage_semantics(self, rng):
        e = ExpertWeights(4, 8, 16, rng=0)
        w1f = e.w1_flat()
        assert w1f.shape == (8, 4 * 16)
        # Column block j of the flat view is expert j's w1.
        np.testing.assert_allclose(w1f.data[:, :16], e.w1.data[0])
        w2f = e.w2_flat()
        assert w2f.shape == (4 * 16, 8)
        np.testing.assert_allclose(w2f.data[:16], e.w2.data[0])

    def test_flops_per_token(self):
        e = ExpertWeights(4, 8, 16, rng=0)
        assert e.flops_per_token() == 2 * 2 * 8 * 16


class TestMoELayer:
    def _layer(self, **kw):
        args = dict(
            hidden_size=8,
            ffn_hidden_size=16,
            num_experts=4,
            capacity_factor=1.0,
            rng=0,
        )
        args.update(kw)
        return MoELayer(**args)

    def test_output_shape_2d(self, rng):
        layer = self._layer()
        out, aux = layer(Tensor(rng.standard_normal((16, 8)).astype(np.float32)))
        assert out.shape == (16, 8)
        assert aux is not None

    def test_output_shape_3d(self, rng):
        layer = self._layer()
        out, _ = layer(Tensor(rng.standard_normal((2, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 8)

    def test_capacity_one_drops_under_imbalance(self, rng):
        layer = self._layer(capacity_factor=1.0, load_balance_coef=0.0)
        layer(Tensor(rng.standard_normal((64, 8)).astype(np.float32)))
        # A fresh random router is essentially never perfectly balanced.
        assert layer.last_plan.num_dropped > 0

    def test_higher_capacity_fewer_drops(self, rng):
        x = rng.standard_normal((64, 8)).astype(np.float32)
        drops = []
        for cf in (1.0, 1.5, 2.0, 8.0):
            layer = self._layer(capacity_factor=cf, rng=7)
            layer(Tensor(x.copy()))
            drops.append(layer.last_plan.num_dropped)
        assert drops[0] >= drops[1] >= drops[2] >= drops[3]
        assert drops[-1] == 0

    def test_dropped_tokens_zero_output(self, rng):
        layer = self._layer(capacity_factor=1.0, load_balance_coef=0.0)
        x = Tensor(rng.standard_normal((64, 8)).astype(np.float32))
        out, _ = layer(x)
        dropped_copies = layer.last_plan.dropped_copies
        if len(dropped_copies):
            token = dropped_copies[0] // layer.top_k  # top_k == 1
            np.testing.assert_array_equal(out.data[token], 0.0)

    def test_backward_reaches_experts_and_router(self, rng):
        layer = self._layer()
        out, aux = layer(Tensor(rng.standard_normal((32, 8)).astype(np.float32)))
        ((out * out).sum() + aux).backward()
        assert layer.experts.w1.grad is not None
        assert layer.experts.w2.grad is not None
        assert layer.router.proj.weight.grad is not None

    def test_moe_with_one_expert_equals_dense_mlp(self, rng):
        """num_experts=1, cf>=1 covers all tokens: the layer is an MLP
        scaled by the (constant 1.0) router weight."""
        layer = self._layer(num_experts=1, capacity_factor=1.0, load_balance_coef=0.0)
        x = rng.standard_normal((8, 8)).astype(np.float64)
        out, _ = layer(Tensor(x, dtype=np.float64))
        e = layer.experts
        act_in = x @ e.w1.data[0] + e.b1.data[0]
        gelu = 0.5 * act_in * (1 + np.tanh(np.sqrt(2 / np.pi) * (act_in + 0.044715 * act_in**3)))
        want = gelu @ e.w2.data[0] + e.b2.data[0]
        np.testing.assert_allclose(out.data, want, rtol=1e-6, atol=1e-8)


class TestDynamicCapacity:
    def test_never_drops(self, rng):
        layer = DynamicCapacityMoELayer(
            hidden_size=8, ffn_hidden_size=16, num_experts=4, rng=0
        )
        for _ in range(3):
            x = Tensor(rng.standard_normal((40, 8)).astype(np.float32))
            layer(x)
            assert layer.last_plan.num_dropped == 0

    def test_capacity_factor_is_refused(self):
        """The capacity is read off each routing, so a capacity factor is
        an error, positional or keyword, not a silently ignored value."""
        with pytest.raises(TypeError):
            DynamicCapacityMoELayer(8, 16, 4, 2.0, rng=0)
        with pytest.raises(TypeError):
            DynamicCapacityMoELayer(8, 16, 4, capacity_factor=2.0, rng=0)

    def test_capacity_tracks_max_load(self, rng):
        layer = DynamicCapacityMoELayer(
            hidden_size=8, ffn_hidden_size=16, num_experts=4, rng=0
        )
        layer(Tensor(rng.standard_normal((40, 8)).astype(np.float32)))
        counts = np.bincount(
            layer.last_routing.expert_indices.reshape(-1), minlength=4
        )
        assert layer.last_plan.capacity == counts.max()

    def test_matches_fixed_moe_at_matching_capacity(self, rng):
        dyn = DynamicCapacityMoELayer(
            hidden_size=8, ffn_hidden_size=16, num_experts=4, rng=3,
            load_balance_coef=0.0,
        )
        x = rng.standard_normal((32, 8)).astype(np.float64)
        out_dyn, _ = dyn(Tensor(x.copy(), dtype=np.float64))
        fixed = MoELayer(
            hidden_size=8, ffn_hidden_size=16, num_experts=4,
            capacity_factor=100.0, rng=9, load_balance_coef=0.0,
        )
        fixed.load_state_dict(dyn.state_dict())
        out_fixed, _ = fixed(Tensor(x.copy(), dtype=np.float64))
        np.testing.assert_allclose(out_dyn.data, out_fixed.data, atol=1e-10)
