"""Timing model for block-sparse attention (the §4 payoff, quantified).

Dense causal attention costs O(S^2) in both score and context products;
the banded block-sparse formulation (Child et al., 2019) implemented in
:mod:`repro.nn.sparse_attention` costs O(S * window).  This module prices
both on the modeled A100 so the crossover is measurable, using the same
grouped-kernel machinery as the MoE products (every block row of the
banded topology is one (bs x window*bs x head_dim) problem).
"""

from __future__ import annotations

from repro.gpu.blocksparse import GroupedProblem, grouped_matmul_time
from repro.gpu.device import A100_SXM4_80GB, DeviceSpec
from repro.gpu.matmul import batched_matmul_time, best_tile, elementwise_time
from repro.gpu.tiling import MEGABLOCKS_TILE
from repro.utils.shapes import ceil_div


def dense_attention_time(
    seq: int,
    num_heads: int,
    head_dim: int,
    batch: int,
    device: DeviceSpec = A100_SXM4_80GB,
) -> float:
    """Scores + softmax + context for dense causal attention (fwd only)."""
    bh = batch * num_heads
    tile = best_tile(seq, seq, head_dim, device)
    scores = batched_matmul_time(bh, seq, seq, head_dim, tile, device).total_s
    soft = elementwise_time(bh * seq * seq, device, reads=2, writes=1)
    tile2 = best_tile(seq, head_dim, seq, device)
    context = batched_matmul_time(bh, seq, head_dim, seq, tile2, device).total_s
    return scores + soft + context


def sparse_attention_time(
    seq: int,
    window_blocks: int,
    num_heads: int,
    head_dim: int,
    batch: int,
    block_size: int = 128,
    device: DeviceSpec = A100_SXM4_80GB,
) -> float:
    """Banded block-sparse attention: SDD scores + sparse softmax + DSD.

    Each block row attends to at most ``window_blocks`` key blocks, so
    per head the score SDD is ``seq/bs`` problems of
    ``(bs, min(row+1, window)*bs, head_dim)``; context is symmetric with
    the k and n extents swapped.
    """
    if seq % block_size:
        raise ValueError(f"seq={seq} not a multiple of block_size={block_size}")
    n_rows = seq // block_size
    bh = batch * num_heads

    score_problems = []
    context_problems = []
    nnz_elements = 0
    for row in range(n_rows):
        kv_blocks = min(row + 1, window_blocks)
        width = kv_blocks * block_size
        score_problems.append(GroupedProblem(block_size, width, head_dim))
        context_problems.append(GroupedProblem(block_size, head_dim, width))
        nnz_elements += block_size * width
    # All heads share the banded structure: replicate the problem list.
    scores = grouped_matmul_time(score_problems * bh, device, MEGABLOCKS_TILE).total_s
    soft = elementwise_time(bh * nnz_elements, device, reads=2, writes=1)
    context = grouped_matmul_time(
        context_problems * bh, device, MEGABLOCKS_TILE
    ).total_s
    return scores + soft + context
