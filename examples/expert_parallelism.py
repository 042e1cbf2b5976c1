"""Distributed dMoE: expert model parallelism over 8 ranks.

The paper trains with 8-way expert parallelism (§6.1): experts shard
across GPUs and tokens travel through all-to-alls.  This example runs
one ``ExpertParallelDMoE`` per rank on 8 rank-threads, forward and
backward, verifies that it computes exactly the single-process dMoE
function — the router's gradient included — and reports the
communication volumes, which are then priced on the modeled A100 NVLink
fabric.

Run:  python examples/expert_parallelism.py
"""

import numpy as np

from repro import Tensor, dMoE
from repro.distributed import ExpertParallelDMoE, run_distributed
from repro.gpu import A100_SXM4_80GB, all_to_all_time
from repro.utils import seed_all

WORLD = 8
EXPERTS = 32
HIDDEN = 64


def main() -> None:
    seed_all(0)
    layer = dMoE(
        hidden_size=HIDDEN, ffn_hidden_size=128, num_experts=EXPERTS,
        top_k=2, block_size=16, rng=0, load_balance_coef=0.0,
    )
    for p in layer.parameters():  # float64, so the comparison reads ~1e-16
        p.data = p.data.astype(np.float64)
    layer.eval()
    print(f"{EXPERTS} experts over {WORLD} ranks -> "
          f"{EXPERTS // WORLD} experts/rank")

    # Each rank holds its own micro batch of tokens and the gradient a
    # loss would hand back for its outputs.
    rng = np.random.default_rng(1)
    xs = [rng.standard_normal((96, HIDDEN)) for _ in range(WORLD)]
    gs = [rng.standard_normal((96, HIDDEN)) for _ in range(WORLD)]

    def rank(group):
        ep = ExpertParallelDMoE(layer, group)
        out, _ = ep(Tensor(xs[group.rank], requires_grad=True))
        out.backward(gs[group.rank])
        return out.data, ep.router.proj.weight.grad, ep.tokens_received, ep.comm_log

    outputs, router_grads, received, logs = zip(
        *run_distributed(rank, WORLD, backend="sim").values
    )

    # Exactness: the distributed computation is the same function, and
    # the router trains as it does in one process.
    reference, _ = layer(Tensor(np.concatenate(xs)))
    reference.backward(np.concatenate(gs))
    diff = np.abs(np.concatenate(outputs) - reference.data).max()
    print(f"max |distributed - single process| = {diff:.2e}")
    diff = np.abs(sum(router_grads) - layer.router.proj.weight.grad).max()
    print(f"max |summed rank router grads - single process| = {diff:.2e}")

    print("\nper-rank tokens received after the dispatch all-to-all:")
    print(f"  {list(received)}")
    imbalance = max(received) / (sum(received) / WORLD)
    print(f"  load imbalance vs uniform: {imbalance:.2f}x "
          "(the dMoE computes it without padding to the max)")

    # One record per logical exchange on every rank; the collective
    # finishes when the busiest sender does, so the time model prices
    # the straggler's volume, not the mean.
    exchanges = [
        [r.bytes_sent_per_rank for r in records]
        for records in zip(*(log.records for log in logs))
    ]
    mean = sum(np.mean(by_rank) for by_rank in exchanges)
    straggler = sum(max(by_rank) for by_rank in exchanges)
    print(f"\ncollectives per rank (forward + backward): {logs[0].counts()}")
    print(f"all-to-all mean bytes/rank: {mean / 1e6:.2f} MB "
          f"(straggler: {straggler / 1e6:.2f} MB)")
    modeled = sum(
        all_to_all_time(max(by_rank), WORLD, A100_SXM4_80GB)
        for by_rank in exchanges
    )
    print(f"modeled time on 8xA100 NVLink: {modeled * 1e6:.1f} us")


if __name__ == "__main__":
    main()
