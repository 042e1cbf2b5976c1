"""Extension bench (paper §7) — routing algorithms x dMoE.

The paper argues improved routing *complements* dropless computation.
This bench routes one batch with the learned top-1 router, BASE linear
assignment, Sinkhorn and a static token-id hash, and reports:

- the balance each achieves (dynamic capacity factor a padding system
  would need);
- the modeled expert-computation time under each distribution for
  MegaBlocks (pays actual tokens) vs. the padding approach (pays the
  max) — quantifying how much routing quality matters for each system.
"""

import numpy as np

from repro.autograd import Tensor
from repro.core import dMoE
from repro.gpu.blocksparse import grouped_matmul_time, moe_layer_problems
from repro.gpu.device import A100_SXM4_80GB as A100
from repro.moe import BaseLayerRouter, Router, SinkhornRouter, hash_assign
from repro.moe.capacity import min_capacity_factor
from repro.utils.rng import seed_all

from harness import print_header

HID, FFN, EXPERTS, TOKENS = 32, 64, 8, 512


def _route_all():
    seed_all(0)
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((TOKENS, HID)).astype(np.float32))
    token_ids = rng.integers(0, 1000, TOKENS)

    routers = {
        "learned top-1": Router(HID, EXPERTS, rng=1, load_balance_coef=0.0),
        "BASE (assignment)": BaseLayerRouter(HID, EXPERTS, rng=2),
        "Sinkhorn": SinkhornRouter(HID, EXPERTS, rng=3),
    }
    results = {}
    for name, router in routers.items():
        res = router(x)
        results[name] = res.expert_indices
    results["hash"] = hash_assign(token_ids, EXPERTS, seed=0)[:, None]
    return results


def test_routing_balance_comparison(benchmark):
    assignments = benchmark(_route_all)
    print_header("§7 extension: routing balance and its cost to each system")
    print(f"{'router':20} {'dyn capacity factor':>20} "
          f"{'MB expert time':>15} {'padded time':>12} {'waste':>7}")
    cfs = {}
    for name, idx in assignments.items():
        cf = min_capacity_factor(idx, EXPERTS)
        cfs[name] = cf
        counts = np.bincount(idx.reshape(-1), minlength=EXPERTS)
        # Scale to realistic per-expert sizes for the cost model.
        scale = 16
        megablocks = grouped_matmul_time(
            moe_layer_problems((counts * scale).tolist(), 1024, 4096, "fwd1"),
            A100,
        ).total_s
        padded = grouped_matmul_time(
            moe_layer_problems([int(counts.max()) * scale] * EXPERTS, 1024, 4096, "fwd1"),
            A100,
        ).total_s
        print(f"{name:20} {cf:>20.2f} {megablocks * 1e6:>13.0f}us "
              f"{padded * 1e6:>10.0f}us {padded / megablocks:>6.2f}x")
        # dMoE never pays more than the padding formulation.
        assert megablocks <= padded * 1.001

    # BASE is perfectly balanced; the learned router is not.
    assert cfs["BASE (assignment)"] <= 1.0 + 1e-9
    assert cfs["learned top-1"] > cfs["BASE (assignment)"]
    # Sinkhorn sits between greedy-learned and perfectly balanced.
    assert cfs["Sinkhorn"] <= cfs["learned top-1"] + 1e-9


def test_all_routers_drive_dmoe(benchmark):
    """Every router layer composes with the dropless layer."""

    def run():
        seed_all(0)
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((128, HID)).astype(np.float32))
        outs = {}
        for name, router in (
            ("learned", None),
            ("base", BaseLayerRouter(HID, EXPERTS, rng=7)),
            ("sinkhorn", SinkhornRouter(HID, EXPERTS, rng=8)),
        ):
            layer = dMoE(HID, FFN, EXPERTS, block_size=8, router=router, rng=9)
            out, _ = layer(x)
            outs[name] = (
                float(np.abs(out.data).mean()),
                layer.last_plan.tokens_per_expert.copy(),
            )
        return outs

    outs = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, (mag, counts) in outs.items():
        assert np.isfinite(mag)
        assert counts.sum() == 128
