"""Expert weight containers shared by the MoE formulations.

All experts are 2-layer MLPs of identical shape (paper §2/§3), stored
expert-major: ``w1`` ``(num_experts, hidden, ffn)``, ``w2``
``(num_experts, ffn, hidden)``.  The token-dropping path consumes them
as stacked batched-matmul operands and serving reads ``w1[e]`` /
``w2[e]`` as contiguous matrices.  The dropless path multiplies the
concatenated block-diagonal operands of Figure 6 — ``w1`` as ``(hidden,
num_experts*ffn)``, ``w2`` as ``(num_experts*ffn, hidden)`` — over the
same storage, which keeps the two formulations numerically comparable
weight-for-weight: ``w2`` and ``b1`` in that form are plain views
(``w2_flat`` / ``b1_flat``); ``w1`` is not (its experts sit side by
side along the *columns*, and no reshape of expert-major storage is
that), so the sparse products take ``w1`` itself and index each
expert's ``(hidden, ffn)`` band in place (``repro.sparse.dispatch``,
"Banded operands").
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
        """w1 materialised as Figure 6's ``(hidden, num_experts * ffn)``.

        A probe and test helper, off the training path: the transpose
        puts ``hidden`` first, so the reshape copies the whole matrix
        (8 MB per layer at 128 x 16384) and its gradient returns through
        a strided accumulate.  The layers pass ``w1`` as stored instead;
        this is the flat reference they are compared with.  ``b1_flat``
        / ``w2_flat`` are true views."""
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
