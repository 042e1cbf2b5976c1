"""Expert weight containers shared by the MoE formulations.

All experts are 2-layer MLPs of identical shape (paper §2/§3): the
token-dropping path consumes them as stacked batched-matmul operands
``(num_experts, hidden, ffn)``; the dropless path views the same storage
as the concatenated block-diagonal operands ``(hidden, num_experts*ffn)``
(Figure 6's ``w1``/``w2``), which keeps the two formulations numerically
comparable weight-for-weight.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.rng import RngLike


class ExpertWeights(Module):
    """Stacked 2-layer MLP weights for ``num_experts`` experts."""

    def __init__(
        self,
        num_experts: int,
        hidden_size: int,
        ffn_hidden_size: int,
        init_std: float = 0.02,
        output_scale_layers: int = 1,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.num_experts = num_experts
        self.hidden_size = hidden_size
        self.ffn_hidden_size = ffn_hidden_size
        out_std = init_std / np.sqrt(2.0 * max(output_scale_layers, 1))
        self.w1 = Parameter(
            init.normal((num_experts, hidden_size, ffn_hidden_size), init_std, rng)
        )
        self.b1 = Parameter(init.zeros((num_experts, ffn_hidden_size)))
        self.w2 = Parameter(
            init.normal((num_experts, ffn_hidden_size, hidden_size), out_std, rng)
        )
        self.b2 = Parameter(init.zeros((num_experts, hidden_size)))

    # ------------------------------------------------------------------
    # Views for the block-sparse (dropless) formulation.
    # ------------------------------------------------------------------
    def w1_flat(self):
        """w1 as the (hidden, num_experts * ffn) right operand of SDD.

        A copy, not a view: w1 is stored expert-major ``(experts, hidden,
        ffn)`` and the transpose puts ``hidden`` first, so the reshape
        materialises the whole matrix on every forward (8 MB per layer
        at 128 x 16384) and its gradient returns through the matching
        strided accumulate.  ``b1_flat`` / ``w2_flat`` are true views."""
        return self.w1.transpose((1, 0, 2)).reshape(
            (self.hidden_size, self.num_experts * self.ffn_hidden_size)
        )

    def b1_flat(self):
        """(num_experts * ffn,) view of b1 for the sparse bias add."""
        return self.b1.reshape((self.num_experts * self.ffn_hidden_size,))

    def w2_flat(self):
        """(num_experts * ffn, hidden) view of w2 for DSD."""
        return self.w2.reshape(
            (self.num_experts * self.ffn_hidden_size, self.hidden_size)
        )

    def flops_per_token(self) -> int:
        """Forward multiply-add FLOPs for one token through one expert."""
        return 2 * 2 * self.hidden_size * self.ffn_hidden_size
