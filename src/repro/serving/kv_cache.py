"""Per-layer K/V caches for incremental decode.

Layout, per Transformer layer: V is ``(batch_slots, heads, max_seq_len,
head_dim)`` and K is stored transposed, ``(batch_slots, heads, head_dim,
max_seq_len)``, so a query's scores and its context both stream over
contiguous rows (the ``attn_rows`` entry, reference
:func:`repro.serving.kernels._attention_rows_ref`).  Both are
pre-grown to ``max_seq_len`` at construction so serving never
reallocates — a step's rows, a prefill's window or a decode step's
tokens, go in with one indexed write per array (``K[slots, ...,
positions] = k_new``, one slot and one position per row; see
:mod:`repro.serving.plan`).

A cache owns its arrays: they are allocated with NumPy, outside the
buffer arena, so no per-step ``next_generation()`` reclaim can take them
back, and :meth:`KVCache.release` simply drops them.  A scheduler holds
one cache for its whole run, so there is no memory to recycle between
caches.

Sliding-window eviction: the model uses *learned absolute* position
embeddings, so evicting the oldest row cannot be a memmove — the
retained suffix would sit at the wrong positions and attention against
shifted-but-not-re-encoded keys would diverge from the uncached
reference.  Eviction is therefore a slot reset plus re-prefill of the
retained window into the same (already allocated) buffers; the engine
drives this and stays bit-identical to the uncached sliding-window
``generate``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


class LayerKV:
    """K/V arrays for one layer: K ``(slots, heads, head_dim, max_seq_len)``
    (keys transposed), V ``(slots, heads, max_seq_len, head_dim)``."""

    __slots__ = ("k", "v")

    def __init__(self, k: np.ndarray, v: np.ndarray) -> None:
        self.k = k
        self.v = v


class KVCache:
    """KV storage plus per-slot lengths for a batch of decode slots.

    ``lengths[b]`` is the number of cached positions for slot ``b``; the
    serving plan's prefill and decode steps maintain it.  ``plan`` is the
    :class:`~repro.serving.plan.ServingPlan` bound to this cache, one for
    every row count.  Use as a context manager, or call :meth:`release`,
    to drop the buffers and the plan.
    """

    def __init__(
        self,
        num_layers: int,
        batch_slots: int,
        num_heads: int,
        max_seq_len: int,
        head_dim: int,
        dtype=np.float32,
    ) -> None:
        self.batch_slots = batch_slots
        self.max_seq_len = max_seq_len
        self.lengths = np.zeros(batch_slots, dtype=np.int64)
        self.plan = None
        k_shape = (batch_slots, num_heads, head_dim, max_seq_len)
        v_shape = (batch_slots, num_heads, max_seq_len, head_dim)
        self.layers: List[LayerKV] = [
            LayerKV(np.empty(k_shape, dtype), np.empty(v_shape, dtype))
            for _ in range(num_layers)
        ]

    @classmethod
    def for_model(
        cls, model, batch_slots: int, max_seq_len: Optional[int] = None
    ) -> "KVCache":
        """Size a cache from a ``TransformerLM`` (layers, heads, head_dim)."""
        attn = model.blocks[0].attn
        return cls(
            num_layers=len(model.blocks),
            batch_slots=batch_slots,
            num_heads=attn.num_heads,
            max_seq_len=max_seq_len or model.max_seq_len,
            head_dim=attn.head_dim,
            dtype=model.tok_emb.weight.data.dtype,
        )

    def check_slots(self, slots, rows: int, call: str, noun: str) -> Optional[np.ndarray]:
        """The slots of a ``call`` (``"decode"`` or ``"prefill"``) over
        ``rows`` rows (``noun``), checked before anything is written:
        ``None`` covers every slot, in order, and then needs one row per
        slot; otherwise one distinct integer slot in ``[0, batch_slots)``
        per row, returned as an integer array.  Raises ``ValueError``."""
        n = self.batch_slots
        if slots is None:
            if rows != n:
                raise ValueError(f"{rows} {noun} for {n} cache slots: name the slots")
            return None
        at = np.asarray(slots)
        if at.ndim != 1 or at.dtype.kind not in "iu":
            raise ValueError(f"{call} slots must be integers, one per row; got {slots!r}")
        names = at.tolist()
        if len(names) != rows:
            raise ValueError(f"{len(names)} {call} slots for {rows} {noun}")
        if names and (min(names) < 0 or max(names) >= n):
            raise ValueError(f"{call} slots must lie in [0, {n}); got {names}")
        if len(set(names)) != rows:
            raise ValueError(f"{call} slots must be distinct; got {names}")
        return at

    def reset(self, slots: Optional[Sequence[int]] = None) -> None:
        """Clear slots for reuse (admission or sliding-window re-prefill).

        Only the lengths reset; the K/V rows are overwritten by the next
        prefill before anything reads them.
        """
        if slots is None:
            self.lengths[:] = 0
        else:
            self.lengths[np.asarray(slots)] = 0

    def remaining(self, slot: int) -> int:
        return self.max_seq_len - int(self.lengths[slot])

    @property
    def nbytes(self) -> int:
        return sum(l.k.nbytes + l.v.nbytes for l in self.layers)

    def release(self) -> None:
        """Drop the K/V buffers and the plan that points into them."""
        self.plan = None
        self.layers = []
        self.lengths[:] = 0

    def __enter__(self) -> "KVCache":
        return self

    def __exit__(self, *exc) -> None:
        self.release()
