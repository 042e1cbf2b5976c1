"""Simulated expert parallelism must compute exactly the single-process
dMoE function and move the right number of bytes."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import dMoE
from repro.distributed import DeviceMesh, ExpertParallelDMoE
from repro.moe.router import Router, RoutingResult
from repro.nn.module import Module
from repro.resilience import counters


def _setup(world=4, experts=8, top_k=1, seed=0, hidden=16, ffn=32, bs=4):
    layer = dMoE(
        hidden, ffn, experts, top_k=top_k, block_size=bs, rng=seed,
        load_balance_coef=0.0,
    )
    layer.eval()
    mesh = DeviceMesh(world=world, expert_parallel=world)
    return layer, ExpertParallelDMoE(layer, mesh)


class TestEquivalence:
    @pytest.mark.parametrize("top_k", [1, 2])
    def test_matches_single_process(self, rng, top_k):
        layer, ep = _setup(top_k=top_k)
        xs = [rng.standard_normal((10 + i, 16)) for i in range(4)]
        res = ep.forward(xs)
        ref, _ = layer(Tensor(np.concatenate(xs), dtype=np.float64))
        got = np.concatenate(res.outputs_per_rank)
        np.testing.assert_allclose(got, ref.data, atol=1e-9)

    def test_uneven_rank_batches(self, rng):
        layer, ep = _setup()
        xs = [rng.standard_normal((n, 16)) for n in (1, 20, 3, 7)]
        res = ep.forward(xs)
        ref, _ = layer(Tensor(np.concatenate(xs), dtype=np.float64))
        np.testing.assert_allclose(
            np.concatenate(res.outputs_per_rank), ref.data, atol=1e-9
        )

    def test_two_rank_mesh(self, rng):
        layer, ep = _setup(world=2)
        xs = [rng.standard_normal((8, 16)) for _ in range(2)]
        res = ep.forward(xs)
        ref, _ = layer(Tensor(np.concatenate(xs), dtype=np.float64))
        np.testing.assert_allclose(
            np.concatenate(res.outputs_per_rank), ref.data, atol=1e-9
        )


class _SignRouter(Module):
    """A per-token router with no ``.proj``: top-2 experts read off the
    signs of the token's first features, fixed weights."""

    def forward(self, x):
        bits = (x.data[:, :3] > 0) @ np.array([1, 2, 4])
        indices = np.stack([bits, (bits + 3) % 8], axis=1)
        weights = np.tile(np.array([0.75, 0.25], dtype=x.dtype), (len(bits), 1))
        return RoutingResult(indices, Tensor(weights), None, None, None)


class TestLayerRouter:
    """EP asks the layer how it routes — it keeps no router of its own."""

    def _layer(self, router):
        layer = dMoE(16, 32, 8, top_k=2, block_size=4, rng=0, router=router)
        layer.eval()
        return layer, ExpertParallelDMoE(layer, DeviceMesh(4, 4))

    @pytest.mark.parametrize(
        "router",
        [
            lambda: Router(
                16, 8, top_k=2, normalize_weights=True,
                load_balance_coef=0.0, rng=5,
            ),
            _SignRouter,
        ],
        ids=["normalized_top2", "no_proj"],
    )
    def test_matches_the_layer_it_shards(self, rng, router):
        layer, ep = self._layer(router())
        xs = [rng.standard_normal((7 + i, 16)) for i in range(4)]
        res = ep.forward(xs)
        ref, _ = layer(Tensor(np.concatenate(xs), dtype=np.float64))
        np.testing.assert_allclose(
            np.concatenate(res.outputs_per_rank), ref.data, atol=1e-9
        )

    def test_poisoned_router_falls_back_on_every_rank(self, rng):
        router = Router(16, 8, top_k=2, load_balance_coef=0.0, rng=5)
        router.proj.weight.data[0, 0] = np.nan
        _, ep = self._layer(router)
        xs = [rng.standard_normal((5, 16)) for _ in range(4)]
        counters.reset()
        res = ep.forward(xs)
        assert counters.get("router_fallback") == 4
        assert all(np.isfinite(o).all() for o in res.outputs_per_rank)
        assert sum(res.tokens_received_per_rank) == 4 * 5 * 2


class TestDataflow:
    def test_two_all_to_alls(self, rng):
        layer, ep = _setup()
        res = ep.forward([rng.standard_normal((8, 16)) for _ in range(4)])
        assert res.comm_log.counts() == {"all_to_all": 2}

    def test_token_conservation(self, rng):
        """Tokens received across ranks == routed copies."""
        layer, ep = _setup(top_k=2)
        xs = [rng.standard_normal((9, 16)) for _ in range(4)]
        res = ep.forward(xs)
        assert sum(res.tokens_received_per_rank) == 4 * 9 * 2

    def test_comm_bytes_scale_with_tokens(self, rng):
        layer, ep = _setup()
        small = ep.forward([rng.standard_normal((4, 16)) for _ in range(4)])
        large = ep.forward([rng.standard_normal((40, 16)) for _ in range(4)])
        assert (
            large.comm_log.total_bytes_per_rank()
            > small.comm_log.total_bytes_per_rank()
        )

    def test_rejects_wrong_rank_count(self, rng):
        layer, ep = _setup()
        with pytest.raises(ValueError):
            ep.forward([rng.standard_normal((4, 16))])

    def test_rejects_indivisible_experts(self):
        layer = dMoE(16, 32, 6, block_size=4, rng=0)
        with pytest.raises(ValueError):
            ExpertParallelDMoE(layer, DeviceMesh(world=4, expert_parallel=4))
