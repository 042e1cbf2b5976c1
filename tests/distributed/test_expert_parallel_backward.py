"""Distributed backward: ``out.backward`` through the expert-parallel
layer must give the single-process dMoE's own gradients — router
included — through exactly four all-to-alls."""

import numpy as np
import pytest

from repro.distributed import run_distributed
from repro.observability import tracing
from tests.distributed.ep_ranks import (
    assert_matches_single_process,
    ep_rank,
    make_layer,
)


def _case(rng, world, rows):
    xs = [rng.standard_normal((rows + i, 16)) for i in range(world)]
    gs = [rng.standard_normal((rows + i, 16)) for i in range(world)]
    return xs, gs


def _run(layer, xs, gs):
    return run_distributed(ep_rank(layer, xs, gs), len(xs), backend="sim").values


class TestExpertParallelBackward:
    @pytest.mark.parametrize("top_k", [1, 2])
    def test_matches_single_process_autograd(self, rng, top_k):
        layer = make_layer(experts=4, top_k=top_k)
        xs, gs = _case(rng, 2, 9)
        assert_matches_single_process(layer, xs, gs, _run(layer, xs, gs))

    def test_the_router_trains(self, rng):
        """The router's gradient is the single-process layer's, split
        over the ranks' tokens: every rank holds a nonzero share."""
        layer = make_layer(experts=4, top_k=2)
        xs, gs = _case(rng, 2, 9)
        for r in _run(layer, xs, gs):
            assert np.abs(r["router_grads"]["proj.weight"]).max() > 0

    def test_four_all_to_alls(self, rng):
        """Forward dispatch+return plus backward dispatch+return —
        exactly what the cost model charges per layer."""
        layer = make_layer(experts=4)
        xs, gs = _case(rng, 2, 8)
        for r in _run(layer, xs, gs):
            assert r["comm_log"].counts() == {"all_to_all": 4}

    def test_four_rank_mesh(self, rng):
        layer = make_layer(experts=8)
        xs, gs = _case(rng, 4, 6)
        assert_matches_single_process(layer, xs, gs, _run(layer, xs, gs))

    def test_expert_grads_stay_rank_local(self, rng):
        """Experts untouched by any token this batch get zero gradient —
        there is no all-reduce over expert weights."""
        layer = make_layer(experts=4)
        # Route everything to expert 0 (ties with zeroed router).
        layer.router.proj.weight.data[...] = 0.0
        xs, gs = _case(rng, 2, 8)
        first, second = (r["shard_grads"]["w1"] for r in _run(layer, xs, gs))
        assert np.abs(first[0]).max() > 0
        np.testing.assert_array_equal(first[1:], 0.0)
        np.testing.assert_array_equal(second, 0.0)

    def test_each_exchange_opens_one_span_per_rank(self, rng):
        """A traced forward+backward: each rank thread opens exactly four
        ``all_to_all`` spans, two in forward and two in backward, each
        closed on the thread that opened it."""
        layer = make_layer(experts=4)
        xs, gs = _case(rng, 2, 8)
        with tracing() as t:
            _run(layer, xs, gs)
        for rank in (0, 1):
            mine = [
                s for s in t.spans
                if s.thread == f"rank{rank}" and s.name == "all_to_all"
            ]
            assert len(mine) == 4
            assert all(s.end is not None and s.end >= s.start for s in mine)
            assert all(s.args == {"world": 2} for s in mine)
