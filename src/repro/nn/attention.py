"""Causal multi-head self-attention (Vaswani et al., 2017).

This is the dense half of every Transformer block in the paper's models;
MoE vs dense only differ in the FFN that follows it.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops_fused import attention_core, masked_softmax
from repro.autograd.tensor import Tensor
from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.utils.rng import RngLike

#: Causal masks keyed by sequence length.  The mask is identical for every
#: call at a given ``seq``, so rebuilding the ``np.tril`` each forward is
#: pure allocation churn; a handful of boolean matrices is cheap to keep.
_CAUSAL_MASKS: dict = {}


def _causal_mask(seq: int) -> np.ndarray:
    mask = _CAUSAL_MASKS.get(seq)
    if mask is None:
        mask = np.tril(np.ones((seq, seq), dtype=bool))
        _CAUSAL_MASKS[seq] = mask
    return mask


class CausalSelfAttention(Module):
    """Multi-head scaled dot-product attention with a causal mask.

    Args:
        hidden_size: model width; must be divisible by ``num_heads``.
        num_heads: number of attention heads (head size = hidden/heads;
            the paper's models all use head size 64).
        dropout_p: attention-probability dropout.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        dropout_p: float = 0.0,
        init_std: float = 0.02,
        output_scale_layers: int = 1,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if hidden_size % num_heads != 0:
            raise ValueError(
                f"hidden_size={hidden_size} not divisible by num_heads={num_heads}"
            )
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        self.qkv = Linear(hidden_size, 3 * hidden_size, init_std=init_std, rng=rng)
        out_std = init_std / np.sqrt(2.0 * max(output_scale_layers, 1))
        self.proj = Linear(hidden_size, hidden_size, init_std=out_std, rng=rng)
        self.attn_dropout = Dropout(dropout_p, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        batch, seq, hidden = x.shape
        qkv = self.qkv(x)  # (B, S, 3H)
        if self.attn_dropout.p <= 0.0 or not self.attn_dropout.training:
            # Fused attention core: one tape node for split / scores /
            # masked softmax / context / head merge (dropout inactive, so
            # nothing sits between the fused stages).
            ctx = attention_core(
                qkv,
                _causal_mask(seq),
                1.0 / np.sqrt(self.head_dim),
                self.num_heads,
                self.head_dim,
            )
            return self.proj(ctx)
        qkv = qkv.reshape((batch, seq, 3, self.num_heads, self.head_dim))
        qkv = qkv.transpose((2, 0, 3, 1, 4))  # (3, B, heads, S, head_dim)
        q, k, v = qkv[0], qkv[1], qkv[2]

        # Fused scale + mask-fill + softmax: one tape node, and no
        # backward work spent on the constant scale/fill operands.
        scores = q @ k.transpose((0, 1, 3, 2))
        probs = masked_softmax(scores, _causal_mask(seq), 1.0 / np.sqrt(self.head_dim))
        probs = self.attn_dropout(probs)

        ctx = probs @ v  # (B, heads, S, head_dim)
        ctx = ctx.transpose((0, 2, 1, 3)).reshape((batch, seq, hidden))
        return self.proj(ctx)
