"""Data-parallel training, from one rank's point of view.

The paper's non-expert layers train data-parallel across 8 GPUs: each
rank computes gradients on its shard of the global batch and the shards
are averaged with an all-reduce.  :func:`data_parallel_step` is that
algorithm for one rank over a :class:`ProcessGroup`; run it under
``run_distributed(..., backend="sim" | "mp")``.  Ranks that start from
the same parameters stay bit-identical (every rank applies the same
averaged gradient), and the trajectory matches single-process
large-batch training up to the reduction order (tested).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.distributed.backend import ProcessGroup, bucket_cuts
from repro.distributed.collectives import CommLog, log_all_reduce
from repro.nn.module import Module
from repro.training.optim import Optimizer, clip_scale


def data_parallel_step(
    group: ProcessGroup,
    model: Module,
    optimizer: Optimizer,
    loss_fn: Callable[[Module, int], "object"],
    grad_clip: float = 0.0,
    comm_log: Optional[CommLog] = None,
) -> float:
    """One synchronized step of this rank's replica; returns its local loss.

    ``loss_fn(model, rank)`` computes the loss Tensor on the rank's shard
    of the batch.  Gradients are averaged (sum / world), matching a
    mean-over-global-batch objective, in one all-reduce per step: every
    gradient (zeros where a parameter got none) laid end to end in one
    bucket — so they must share a dtype — and each ``p.grad`` a view of
    the averaged bucket afterwards; one ring all-reduce of the bucket is
    charged to ``comm_log``.
    """
    optimizer.zero_grad()
    loss = loss_fn(model, group.rank)
    loss.backward()
    grads = [
        p.grad if p.grad is not None else np.zeros_like(p.data)
        for p in optimizer.params
    ]
    cuts = bucket_cuts(grads)
    mean = group.all_reduce(np.concatenate([g.reshape(-1) for g in grads]))
    mean /= group.world
    log_all_reduce(mean.nbytes, group.world, comm_log)
    for p, g, lo, hi in zip(optimizer.params, grads, cuts, cuts[1:]):
        p.grad = mean[lo:hi].reshape(g.shape).astype(p.data.dtype, copy=False)
    scale = 1.0
    if grad_clip > 0:
        scale = clip_scale(optimizer.grad_norm(), grad_clip)
    optimizer.step(grad_scale=scale)
    return float(loss.data)
