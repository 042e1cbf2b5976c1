"""Token permutation for MoE layers: group-by-expert with padding or drop.

Two plans are provided:

- :class:`PaddedPlan` (MegaBlocks, §5.2): every routed token-copy is kept;
  each expert's group is padded with zero rows up to a multiple of the
  sparse block size so the block-sparse kernels see whole blocks.
- :class:`DroppingPlan` (GShard/Switch/Tutel, §2.2): each expert owns
  exactly ``capacity`` slots; copies beyond capacity are dropped (earliest
  tokens win, matching the position-in-batch priority of GShard) and empty
  slots are zero padding.

Both plans permute *stably*: tokens keep their arrival order within an
expert group, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import gather_rows, scatter_rows
from repro.autograd.tensor import Tensor
from repro.utils.shapes import round_up


@dataclass
class PaddedPlan:
    """Permutation metadata for the dropless (padded) formulation.

    Attributes:
        gather_indices: ``(total_padded,)`` source *token* row per padded
            slot, ``-1`` for padding rows.
        copy_indices: ``(total_padded,)`` flat routed-copy id (``t * top_k
            + slot``) per padded slot, ``-1`` for padding; used to fetch
            the matching router weight.
        tokens_per_expert: routed copies per expert.
        padded_tokens_per_expert: group sizes after rounding up to the
            block size.
        block_size / num_tokens / top_k: bookkeeping.
    """

    gather_indices: np.ndarray
    copy_indices: np.ndarray
    tokens_per_expert: np.ndarray
    padded_tokens_per_expert: np.ndarray
    block_size: int
    num_tokens: int
    top_k: int

    @property
    def total_padded(self) -> int:
        return int(self.padded_tokens_per_expert.sum())

    @property
    def blocks_per_expert(self) -> np.ndarray:
        return self.padded_tokens_per_expert // self.block_size

    @property
    def padding_fraction(self) -> float:
        total = self.total_padded
        return 1.0 - self.tokens_per_expert.sum() / total if total else 0.0


def make_padded_plan(
    expert_indices: np.ndarray,
    num_experts: int,
    block_size: int,
) -> PaddedPlan:
    """Build the dropless permutation plan from router assignments."""
    idx = np.asarray(expert_indices)
    if idx.ndim == 1:
        idx = idx[:, None]
    num_tokens, top_k = idx.shape
    flat = idx.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= num_experts):
        raise ValueError("expert index out of range")

    order = flat.argsort(kind="stable")  # copies grouped by expert
    counts = np.bincount(flat, minlength=num_experts).astype(np.int64)
    padded = round_up_counts(counts, block_size)
    padded_starts = np.concatenate([[0], padded.cumsum()])[:-1]
    sorted_starts = np.concatenate([[0], counts.cumsum()])[:-1]

    total_padded = int(padded.sum())
    gather = np.full(total_padded, -1, dtype=np.int64)
    copies = np.full(total_padded, -1, dtype=np.int64)
    if flat.size:
        sorted_experts = flat[order]
        within = np.arange(flat.size) - sorted_starts[sorted_experts]
        dest = padded_starts[sorted_experts] + within
        gather[dest] = order // top_k
        copies[dest] = order
    return PaddedPlan(
        gather_indices=gather,
        copy_indices=copies,
        tokens_per_expert=counts,
        padded_tokens_per_expert=padded,
        block_size=block_size,
        num_tokens=num_tokens,
        top_k=top_k,
    )


def round_up_counts(counts: np.ndarray, block_size: int) -> np.ndarray:
    """Round each group size up to the block size (zero stays zero)."""
    counts = np.asarray(counts, dtype=np.int64)
    return (counts + block_size - 1) // block_size * block_size


def padded_gather(x: Tensor, plan: PaddedPlan) -> Tensor:
    """Permute tokens into padded expert groups (zero rows for padding)."""
    return gather_rows(x, plan.gather_indices)


def padded_scatter(
    y: Tensor, plan: PaddedPlan, expert_weights: Tensor
) -> Tensor:
    """Un-permute, scale by router weights, and sum top-k copies per token.

    ``expert_weights`` is the ``(num_tokens, top_k)`` Tensor from the
    router; gradients flow through both ``y`` and the weights.
    """
    flat_weights = expert_weights.reshape((plan.num_tokens * plan.top_k, 1))
    permuted_weights = gather_rows(flat_weights, plan.copy_indices)
    weighted = y * permuted_weights
    return scatter_rows(weighted, plan.gather_indices, plan.num_tokens)


# ----------------------------------------------------------------------
# Token-dropping plan (the baseline formulation)
# ----------------------------------------------------------------------
@dataclass
class DroppingPlan:
    """Permutation metadata for the fixed-capacity formulation.

    Attributes:
        dispatch_tokens: ``(num_experts, capacity)`` source token row per
            slot, ``-1`` for padding.
        dispatch_copies: ``(num_experts, capacity)`` flat routed-copy id
            per slot, ``-1`` for padding.
        dropped_copies: flat copy ids that exceeded capacity.
        flat_tokens / flat_copies: the two dispatch matrices flattened to
            ``(num_experts * capacity,)``, the index arrays the gather and
            the scatter read (fields, so graph capture resolves them per
            step like every other plan array).
        tokens_per_expert: routed copies per expert *before* dropping.
        capacity / num_tokens / top_k: bookkeeping.
    """

    dispatch_tokens: np.ndarray
    dispatch_copies: np.ndarray
    dropped_copies: np.ndarray
    flat_tokens: np.ndarray
    flat_copies: np.ndarray
    tokens_per_expert: np.ndarray
    capacity: int
    num_tokens: int
    top_k: int

    @property
    def num_dropped(self) -> int:
        return len(self.dropped_copies)

    @property
    def drop_fraction(self) -> float:
        total = self.num_tokens * self.top_k
        return self.num_dropped / total if total else 0.0


def make_dropping_plan(
    expert_indices: np.ndarray,
    num_experts: int,
    capacity: int,
) -> DroppingPlan:
    """Build the fixed-capacity dispatch plan (earliest tokens keep slots)."""
    idx = np.asarray(expert_indices)
    if idx.ndim == 1:
        idx = idx[:, None]
    num_tokens, top_k = idx.shape
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    flat = idx.reshape(-1)

    order = flat.argsort(kind="stable")
    counts = np.bincount(flat, minlength=num_experts).astype(np.int64)
    sorted_starts = np.concatenate([[0], counts.cumsum()])[:-1]

    dispatch_tokens = np.full((num_experts, capacity), -1, dtype=np.int64)
    dispatch_copies = np.full((num_experts, capacity), -1, dtype=np.int64)
    dropped = []
    if flat.size:
        sorted_experts = flat[order]
        within = np.arange(flat.size) - sorted_starts[sorted_experts]
        keep = within < capacity
        dispatch_tokens[sorted_experts[keep], within[keep]] = order[keep] // top_k
        dispatch_copies[sorted_experts[keep], within[keep]] = order[keep]
        dropped = order[~keep]
    return DroppingPlan(
        dispatch_tokens=dispatch_tokens,
        dispatch_copies=dispatch_copies,
        dropped_copies=np.asarray(dropped, dtype=np.int64),
        flat_tokens=dispatch_tokens.reshape(-1),
        flat_copies=dispatch_copies.reshape(-1),
        tokens_per_expert=counts,
        capacity=capacity,
        num_tokens=num_tokens,
        top_k=top_k,
    )


def dropping_gather(x: Tensor, plan: DroppingPlan) -> Tensor:
    """Dispatch tokens into the ``(num_experts, capacity, hidden)`` buffer.

    The capacity extent is ``-1``: routing may move it, and a reshape
    constant must not freeze it."""
    flat = gather_rows(x, plan.flat_tokens)
    return flat.reshape((len(plan.dispatch_tokens), -1, x.shape[-1]))


def dropping_scatter(
    y: Tensor, plan: DroppingPlan, expert_weights: Tensor
) -> Tensor:
    """Combine expert outputs back to token order, scaled by router weights.

    Dropped tokens receive zero output (the Transformer's residual carries
    their representation forward, per paper §2.2).
    """
    flat_y = y.reshape((-1, y.shape[-1]))
    flat_weights = expert_weights.reshape((plan.num_tokens * plan.top_k, 1))
    slot_weights = gather_rows(flat_weights, plan.flat_copies)
    weighted = flat_y * slot_weights
    return scatter_rows(weighted, plan.flat_tokens, plan.num_tokens)
