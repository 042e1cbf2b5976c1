"""The dense feed-forward network (FFN) that MoE layers replace.

Two-layer MLP: ``hidden -> ffn_hidden -> hidden`` with GELU, matching the
Transformer FFN in Table 1 (``ffn_hidden_size = 4 * hidden_size``).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import ACTIVATIONS
from repro.autograd.ops_fused import bias_gelu
from repro.autograd.tensor import Tensor
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.utils.rng import RngLike


class MLP(Module):
    """Position-wise feed-forward network."""

    def __init__(
        self,
        hidden_size: int,
        ffn_hidden_size: int,
        activation: str = "gelu",
        init_std: float = 0.02,
        output_scale_layers: int = 1,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; options: {sorted(ACTIVATIONS)}"
            )
        self.hidden_size = hidden_size
        self.ffn_hidden_size = ffn_hidden_size
        self.activation = activation
        self.fc1 = Linear(hidden_size, ffn_hidden_size, init_std=init_std, rng=rng)
        out_std = init_std / np.sqrt(2.0 * max(output_scale_layers, 1))
        self.fc2 = Linear(ffn_hidden_size, hidden_size, init_std=out_std, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if self.activation == "gelu" and self.fc1.bias is not None:
            # Fused bias + GELU: one tape node instead of the matmul-bias
            # add plus the activation's intermediate chain.
            h = bias_gelu(x @ self.fc1.weight, self.fc1.bias)
            return self.fc2(h)
        act = ACTIVATIONS[self.activation]
        return self.fc2(act(self.fc1(x)))
