"""Sparse-topology construction from expert assignments (Figure 6, line 12).

``make_topology`` turns a padded permutation plan into the Figure-3C
block-diagonal topology: expert ``e`` owns a group of
``padded_tokens_e / block_size`` block rows by ``ffn_hidden / block_size``
block columns.  The transposed metadata is built at the same time (§5.2)
and amortized across all six matrix products of the layer's forward and
backward passes.

Topologies are memoized in a small LRU cache keyed by the block-group
layout (``blocks_per_expert`` x column width x block size): identical
block-count vectors yield byte-identical metadata, so a hit skips the
construction and the dispatch-plan analysis warmed here.  Layouts
rarely repeat in training, though: over the bench's training phases
the cache hits 0.3 % of builds on ``small_decode``, none on
``skew_queue`` and 20 % on ``ref_prefill``.  This is the eager rung's
builder — and the reference of the kernel table's ``dispatch`` entry,
which plans the compiled rung's dispatch in one C call without this
cache (:mod:`repro.autograd.lower.kernels.router`).  Hit rates are
reported through :mod:`repro.sparse.stats`.

What ``make_topology`` returns is a per-call *view* of the cached entry
that also carries the plan's tokens per non-empty expert as
``Topology.live_rows``: the kernels skip the block-rounding padding
(:mod:`repro.sparse.dispatch`, "Structural-zero rows") while the cache
stays keyed on block counts, which is all the metadata depends on.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.moe.permute import PaddedPlan
from repro.observability.tracing import span
from repro.sparse import dispatch, stats
from repro.sparse.topology import Topology

#: Maximum distinct block-group layouts kept alive.  A Topology's
#: metadata is a few int32 arrays of length nnz_blocks, so even hundreds
#: of entries are cheap next to one activation tensor.
TOPOLOGY_CACHE_SIZE = 256

_cache: "OrderedDict[tuple, Topology]" = OrderedDict()


def clear_topology_cache() -> None:
    _cache.clear()


def topology_cache_len() -> int:
    return len(_cache)


def cached_block_diagonal_topology(
    rows_per_block_group: np.ndarray, cols_per_block_group: int, block_size: int
) -> Topology:
    """LRU-cached :meth:`Topology.block_diagonal` with one column width
    for every group (the dMoE's experts are uniform).  The returned
    Topology is shared between callers and must be treated as immutable
    (it already is: a frozen dataclass over index arrays nobody mutates).
    """
    rows_per = np.asarray(rows_per_block_group, dtype=np.int64)
    key = (int(block_size), int(cols_per_block_group), tuple(rows_per.tolist()))

    topo = _cache.get(key)
    if topo is not None:
        _cache.move_to_end(key)
        stats.record_cache("hits")
        return topo

    stats.record_cache("misses")
    with span("topology_build"):
        topo = Topology.block_diagonal(
            rows_per, np.full(len(rows_per), cols_per_block_group, np.int64), block_size
        )
        # Warm the grouped-GEMM dispatch plan and group table while we
        # are paying the construction cost anyway; every later kernel
        # call reads them from the memo.
        dispatch.group_table(topo)
    _cache[key] = topo
    if len(_cache) > TOPOLOGY_CACHE_SIZE:
        _cache.popitem(last=False)
        stats.record_cache("evictions")
    return topo


def make_topology(plan: PaddedPlan, ffn_hidden_size: int) -> Topology:
    """Block-diagonal topology for the hidden activations of a dMoE layer.

    The sparse matrix has shape ``(total_padded_tokens, num_experts *
    ffn_hidden_size)``; the nonzero region of expert ``e`` is its padded
    token rows crossed with its ffn column slice.

    The result knows the live rows of each group (``plan``'s tokens per
    non-empty expert), so the kernels multiply no padding.
    """
    bs = plan.block_size
    cols, ragged = divmod(int(ffn_hidden_size), bs)
    if ragged:
        raise ValueError(
            f"ffn_hidden_size={ffn_hidden_size} must be a multiple of the "
            f"block size {bs} (paper §5.2 pads tokens, not features)"
        )
    topo = cached_block_diagonal_topology(plan.blocks_per_expert, cols, bs)
    counts = plan.tokens_per_expert
    return dispatch.with_live_rows(topo, counts[counts > 0])


def expert_of_padded_row(plan: PaddedPlan) -> np.ndarray:
    """Expert id owning each padded row (length ``total_padded``)."""
    num_experts = len(plan.padded_tokens_per_expert)
    return np.repeat(np.arange(num_experts), plan.padded_tokens_per_expert)
