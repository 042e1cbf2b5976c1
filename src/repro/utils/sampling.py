"""Token sampling shared by ``TransformerLM.generate`` and the engine.

One function, one contract: given next-token logits for a batch, draw
one token id per row.  ``TransformerLM.generate`` (uncached), the
KV-cached :class:`~repro.serving.engine.InferenceEngine`, and the
continuous-batching scheduler all call this with identical RNG
consumption per row, so cached and uncached generation agree token for
token under the same seed.

NumPy-only leaf module: ``repro.nn`` and ``repro.serving`` both import
it, so it imports nothing of the package.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def sample_rows(
    logits: np.ndarray,
    temperature: float,
    top_k: Optional[int],
    gens: Sequence[np.random.Generator],
) -> np.ndarray:
    """Draw one token id per row of ``(B, vocab)`` next-token logits, row
    ``i`` from ``gens[i]``.

    ``temperature <= 0`` means greedy argmax (no RNG consumed).  With
    ``top_k`` set, all but the ``top_k`` highest logits of a row are
    masked before the softmax.  Each row then takes one uniform from its
    generator and returns the index ``gens[i].choice(vocab, p=probs[i])``
    would (the inverse CDF: ``cumsum`` scaled by its last entry,
    ``searchsorted(side="right")``), with every row's softmax and sums
    taken in one call.  Every step is elementwise or reduces one row, so
    a row's token does not depend on the rows beside it.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if temperature <= 0:
        return np.argmax(logits, axis=-1).astype(np.int64)
    logits = logits / temperature
    if top_k is not None and top_k < logits.shape[-1]:
        kth = np.partition(logits, -top_k, axis=-1)[:, [-top_k]]
        logits = np.where(logits < kth, -np.inf, logits)
    logits = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(probs, axis=-1)
    total = cdf[:, -1:]
    if not np.isfinite(total).all():
        raise ValueError("next-token probabilities are not finite")
    cdf /= total
    return np.array(
        [row.searchsorted(gen.random(), side="right") for row, gen in zip(cdf, gens)],
        dtype=np.int64,
    )


def sample_tokens(
    logits: np.ndarray,
    temperature: float,
    top_k: Optional[int],
    gen: np.random.Generator,
) -> np.ndarray:
    """:func:`sample_rows` with every row drawing from ``gen``, in row
    order — the per-row RNG contract every caller relies on for seeded
    determinism."""
    return sample_rows(logits, temperature, top_k, [gen] * len(logits))
