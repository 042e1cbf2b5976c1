"""Expert parallelism must compute exactly the single-process dMoE
function and move the right number of bytes."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.distributed import ExpertParallelDMoE, run_distributed
from repro.moe.router import Router, RoutingResult
from repro.nn.module import Module
from repro.observability import registry
from repro.resilience import counters
from tests.distributed.ep_ranks import ep_rank, make_layer


def _forward(layer, xs):
    """Every rank's forward on ``"sim"``, as :func:`ep_rank` dicts."""
    return run_distributed(ep_rank(layer, xs), len(xs), backend="sim").values


def _assert_single_process(layer, xs, ranks):
    ref, _ = layer(Tensor(np.concatenate(xs)))
    got = np.concatenate([r["output"] for r in ranks])
    np.testing.assert_allclose(got, ref.data, atol=1e-9)


class TestEquivalence:
    @pytest.mark.parametrize("top_k", [1, 2])
    def test_matches_single_process(self, rng, top_k):
        layer = make_layer(experts=8, top_k=top_k)
        xs = [rng.standard_normal((10 + i, 16)) for i in range(4)]
        _assert_single_process(layer, xs, _forward(layer, xs))

    def test_uneven_rank_batches(self, rng):
        layer = make_layer(experts=8)
        xs = [rng.standard_normal((n, 16)) for n in (1, 20, 3, 7)]
        _assert_single_process(layer, xs, _forward(layer, xs))

    def test_two_rank_mesh(self, rng):
        layer = make_layer(experts=8)
        xs = [rng.standard_normal((8, 16)) for _ in range(2)]
        _assert_single_process(layer, xs, _forward(layer, xs))


class _SignRouter(Module):
    """A per-token router with no ``.proj``: top-2 experts read off the
    signs of the token's first features, fixed weights."""

    def forward(self, x):
        bits = (x.data[:, :3] > 0) @ np.array([1, 2, 4])
        indices = np.stack([bits, (bits + 3) % 8], axis=1)
        weights = np.tile(np.array([0.75, 0.25], dtype=x.dtype), (len(bits), 1))
        return RoutingResult(indices, Tensor(weights), None, None, None)


class TestLayerRouter:
    """Each rank routes with a copy of the layer's own router."""

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
        layer = make_layer(experts=8, top_k=2, router=router())
        xs = [rng.standard_normal((7 + i, 16)) for i in range(4)]
        _assert_single_process(layer, xs, _forward(layer, xs))

    def test_poisoned_router_falls_back_on_every_rank(self, rng):
        router = Router(16, 8, top_k=2, load_balance_coef=0.0, rng=5)
        router.proj.weight.data[0, 0] = np.nan
        layer = make_layer(experts=8, top_k=2, router=router)
        xs = [rng.standard_normal((5, 16)) for _ in range(4)]
        registry().reset()
        ranks = _forward(layer, xs)
        assert counters.get("router_fallback") == 4
        assert all(np.isfinite(r["output"]).all() for r in ranks)
        assert sum(r["tokens_received"] for r in ranks) == 4 * 5 * 2


class TestDataflow:
    def test_two_all_to_alls(self, rng):
        layer = make_layer(experts=8)
        ranks = _forward(layer, [rng.standard_normal((8, 16)) for _ in range(4)])
        for r in ranks:
            assert r["comm_log"].counts() == {"all_to_all": 2}

    def test_token_conservation(self, rng):
        """Tokens received across ranks == routed copies."""
        layer = make_layer(experts=8, top_k=2)
        xs = [rng.standard_normal((9, 16)) for _ in range(4)]
        assert sum(r["tokens_received"] for r in _forward(layer, xs)) == 4 * 9 * 2

    def test_comm_bytes_scale_with_tokens(self, rng):
        layer = make_layer(experts=8)

        def volume(rows):
            ranks = _forward(layer, [rng.standard_normal((rows, 16)) for _ in range(4)])
            return sum(r["comm_log"].total_bytes_per_rank() for r in ranks)

        assert volume(40) > volume(4)

    def test_rejects_wrong_rank_count(self):
        """A rank outside its group's world is refused when the layer is
        built: the mesh's one rank check guards the shard it slices."""
        with pytest.raises(ValueError, match="out of range"):
            ExpertParallelDMoE(make_layer(experts=8), SimpleNamespace(rank=4, world=4))

    def test_rejects_indivisible_experts(self):
        with pytest.raises(ValueError, match="not divisible"):
            ExpertParallelDMoE(make_layer(experts=6), SimpleNamespace(rank=0, world=4))
