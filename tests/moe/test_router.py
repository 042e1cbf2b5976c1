import numpy as np
import pytest

from repro.autograd import Tensor
from repro.moe import Router, load_balancing_loss, router_z_loss, top_k_indices


class TestTopKIndices:
    def test_top1_is_argmax(self, rng):
        scores = rng.random((10, 6))
        np.testing.assert_array_equal(
            top_k_indices(scores, 1)[:, 0], scores.argmax(axis=1)
        )

    def test_topk_sorted_best_first(self, rng):
        scores = rng.random((5, 8))
        idx = top_k_indices(scores, 3)
        picked = scores[np.arange(5)[:, None], idx]
        assert np.all(np.diff(picked, axis=1) <= 0)

    def test_ties_break_to_lower_id(self):
        scores = np.array([[0.5, 0.5, 0.1]])
        assert top_k_indices(scores, 2).tolist() == [[0, 1]]

    def test_k_out_of_range(self, rng):
        with pytest.raises(ValueError):
            top_k_indices(rng.random((2, 4)), 5)
        with pytest.raises(ValueError):
            top_k_indices(rng.random((2, 4)), 0)

    def test_no_duplicate_experts_per_token(self, rng):
        idx = top_k_indices(rng.random((20, 6)), 4)
        for row in idx:
            assert len(set(row.tolist())) == 4


class TestLoadBalancingLoss:
    def test_uniform_assignment_gives_one(self):
        """Perfectly balanced scores + dispatch -> loss == 1 (the minimum)."""
        E, T = 4, 16
        scores = Tensor(np.full((T, E), 1.0 / E))
        indices = np.tile(np.arange(E), T // E)[:, None]
        loss = load_balancing_loss(scores, indices, E)
        assert abs(float(loss.data) - 1.0) < 1e-6

    def test_imbalance_increases_loss(self):
        E, T = 4, 16
        scores_data = np.full((T, E), 0.01)
        scores_data[:, 0] = 0.97
        indices = np.zeros((T, 1), dtype=int)
        loss = load_balancing_loss(Tensor(scores_data), indices, E)
        assert float(loss.data) > 1.5

    def test_gradient_flows_through_scores(self, rng):
        scores = Tensor(
            rng.random((8, 4)).astype(np.float64), requires_grad=True, dtype=np.float64
        )
        indices = rng.integers(0, 4, (8, 1))
        load_balancing_loss(scores, indices, 4).backward()
        assert scores.grad is not None


class TestRouterZLoss:
    def test_zero_logits_zero_loss(self):
        logits = Tensor(np.zeros((4, 3)))
        # logsumexp(0,0,0) = log 3 -> loss = (log 3)^2
        assert abs(float(router_z_loss(logits).data) - np.log(3) ** 2) < 1e-5

    def test_large_logits_penalized(self, rng):
        small = router_z_loss(Tensor(rng.standard_normal((4, 3))))
        big = router_z_loss(Tensor(10 + rng.standard_normal((4, 3))))
        assert float(big.data) > float(small.data)


class TestRouter:
    def _router(self, **kw):
        args = dict(hidden_size=8, num_experts=4, top_k=1, rng=0)
        args.update(kw)
        return Router(**args)

    def test_routing_result_shapes(self, rng):
        r = self._router(top_k=2)
        res = r(Tensor(rng.standard_normal((10, 8)).astype(np.float32)))
        assert res.expert_indices.shape == (10, 2)
        assert res.expert_weights.shape == (10, 2)
        assert res.scores.shape == (10, 4)

    def test_weights_are_selected_probabilities(self, rng):
        r = self._router(top_k=2)
        res = r(Tensor(rng.standard_normal((6, 8)).astype(np.float32)))
        rows = np.arange(6)[:, None]
        np.testing.assert_allclose(
            res.expert_weights.data, res.scores.data[rows, res.expert_indices]
        )

    def test_scores_rows_sum_to_one(self, rng):
        r = self._router()
        res = r(Tensor(rng.standard_normal((6, 8)).astype(np.float32)))
        np.testing.assert_allclose(res.scores.data.sum(axis=1), 1.0, rtol=1e-5)

    def test_aux_loss_composition(self, rng):
        r = self._router(load_balance_coef=0.1, z_loss_coef=0.01)
        res = r(Tensor(rng.standard_normal((6, 8)).astype(np.float32)))
        assert res.load_balancing_loss is not None
        assert res.z_loss is not None
        total = float(res.aux_loss.data)
        assert abs(
            total - float(res.load_balancing_loss.data) - float(res.z_loss.data)
        ) < 1e-6

    def test_aux_none_when_disabled(self, rng):
        r = self._router(load_balance_coef=0.0)
        res = r(Tensor(rng.standard_normal((6, 8)).astype(np.float32)))
        assert res.load_balancing_loss is None
        assert res.aux_loss is None

    def test_jitter_only_in_training(self, rng):
        r = self._router(jitter_eps=0.3, load_balance_coef=0.0)
        x = Tensor(rng.standard_normal((6, 8)).astype(np.float32))
        r.eval()
        a = r(x).scores.data
        b = r(x).scores.data
        np.testing.assert_array_equal(a, b)  # no jitter in eval

    def test_rejects_2d_violation(self, rng):
        r = self._router()
        with pytest.raises(ValueError):
            r(Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32)))

    def test_invalid_top_k(self):
        with pytest.raises(ValueError):
            self._router(top_k=5)

    def test_router_weight_gets_gradient(self, rng):
        r = self._router(load_balance_coef=0.0)
        x = Tensor(rng.standard_normal((6, 8)).astype(np.float32))
        res = r(x)
        res.expert_weights.sum().backward()
        assert r.proj.weight.grad is not None


class TestRouterFallback:
    """Non-finite logits degrade to uniform routing, never NaN topology."""

    def _poisoned(self, **kw):
        args = dict(hidden_size=8, num_experts=4, top_k=1, rng=0)
        args.update(kw)
        r = Router(**args)
        r.proj.weight.data[0, 0] = np.nan
        return r

    def test_fallback_routes_uniformly(self, rng):
        from repro.observability import registry
        from repro.resilience import counters

        registry().reset()
        r = self._poisoned()
        x = Tensor(rng.standard_normal((8, 8)).astype(np.float32))
        res = r(x)
        assert counters.get("router_fallback") == 1
        # Round-robin: every expert receives tokens, indices are valid.
        assert res.expert_indices.shape == (8, 1)
        assert set(res.expert_indices.reshape(-1)) == {0, 1, 2, 3}
        # Constant uniform weights, finite scores, no aux loss from garbage.
        np.testing.assert_allclose(res.expert_weights.data, 0.25)
        assert np.isfinite(res.scores.data).all()
        assert res.aux_loss is None

    def test_fallback_weights_normalized_for_top2(self, rng):
        r = self._poisoned(top_k=2, normalize_weights=True)
        res = r(Tensor(rng.standard_normal((6, 8)).astype(np.float32)))
        np.testing.assert_allclose(res.expert_weights.data.sum(axis=-1), 1.0)

    def test_fallback_does_not_train_router(self, rng):
        r = self._poisoned(load_balance_coef=0.0)
        res = r(Tensor(rng.standard_normal((6, 8)).astype(np.float32)))
        assert not res.expert_weights.requires_grad

    def test_healthy_router_does_not_fall_back(self, rng):
        from repro.observability import registry
        from repro.resilience import counters

        registry().reset()
        r = Router(hidden_size=8, num_experts=4, rng=0)
        r(Tensor(rng.standard_normal((6, 8)).astype(np.float32)))
        assert counters.get("router_fallback") == 0

    def test_dmoe_forward_stays_finite_with_poisoned_router(self, rng):
        from repro.core import dMoE
        from repro.observability import registry
        from repro.resilience import counters

        registry().reset()
        layer = dMoE(16, 32, num_experts=4, block_size=8, rng=0)
        layer.router.proj.weight.data[:] = np.inf
        x = Tensor(rng.standard_normal((12, 16)).astype(np.float32))
        out, aux = layer(x)
        assert np.isfinite(out.data).all()
        assert aux is None
        assert counters.get("router_fallback") == 1


class TestRouterWeightNormalization:
    def test_top2_weights_sum_to_one_when_normalized(self, rng):
        r = Router(8, 4, top_k=2, normalize_weights=True, rng=0)
        res = r(Tensor(rng.standard_normal((12, 8)).astype(np.float32)))
        np.testing.assert_allclose(res.expert_weights.data.sum(axis=1), 1.0, rtol=1e-5)

    def test_unnormalized_weights_are_raw_probabilities(self, rng):
        r = Router(8, 4, top_k=2, normalize_weights=False, rng=0)
        res = r(Tensor(rng.standard_normal((12, 8)).astype(np.float32)))
        assert (res.expert_weights.data.sum(axis=1) < 1.0 + 1e-6).all()

    def test_top1_normalization_is_noop(self, rng):
        x = rng.standard_normal((12, 8)).astype(np.float32)
        a = Router(8, 4, top_k=1, normalize_weights=True, rng=0)(Tensor(x.copy()))
        b = Router(8, 4, top_k=1, normalize_weights=False, rng=0)(Tensor(x.copy()))
        np.testing.assert_allclose(a.expert_weights.data, b.expert_weights.data)

    def test_normalized_weights_still_differentiable(self, rng):
        r = Router(8, 4, top_k=2, normalize_weights=True, rng=0, load_balance_coef=0.0)
        res = r(Tensor(rng.standard_normal((6, 8)).astype(np.float32)))
        res.expert_weights.sum().backward()
        assert r.proj.weight.grad is not None
