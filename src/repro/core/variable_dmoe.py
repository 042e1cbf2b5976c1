"""Variable-sized-expert dMoE (paper §4.1, flagged as future work).

Figure 3C's block-diagonal formulation relaxes *both* block dimensions:
variable rows (tokens per expert — the dropless mechanism) and variable
columns (a different ``ffn_hidden_size`` per expert).  The paper builds
the former and leaves the latter open; this layer implements it, since
the topology machinery already supports arbitrary per-group column
counts.

Experts share one concatenated weight storage (``w1``: hidden x sum(f_e);
``w2``: sum(f_e) x hidden) sliced per expert by the column layout, so
the same SDD -> DSD pipeline runs unchanged — only the topology differs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autograd.graph import host as graph_host
from repro.autograd.tensor import Tensor
from repro.core.dmoe import _build_dispatch, expert_mlp
from repro.moe.permute import PaddedPlan, padded_gather, padded_scatter
from repro.moe.router import Router, RoutingResult
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.sparse.topology import Topology
from repro.utils.rng import RngLike


class VariableExpertWeights(Module):
    """Concatenated 2-layer MLP weights for heterogeneous experts."""

    def __init__(
        self,
        hidden_size: int,
        ffn_hidden_sizes: Sequence[int],
        init_std: float = 0.02,
        output_scale_layers: int = 1,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.ffn_hidden_sizes = np.asarray(ffn_hidden_sizes, dtype=np.int64)
        if (self.ffn_hidden_sizes <= 0).any():
            raise ValueError("every expert needs a positive ffn size")
        total = int(self.ffn_hidden_sizes.sum())
        out_std = init_std / np.sqrt(2.0 * max(output_scale_layers, 1))
        self.w1 = Parameter(init.normal((hidden_size, total), init_std, rng))
        self.b1 = Parameter(init.zeros(total))
        self.w2 = Parameter(init.normal((total, hidden_size), out_std, rng))
        self.b2 = Parameter(
            init.zeros((len(self.ffn_hidden_sizes), hidden_size))
        )

    @property
    def num_experts(self) -> int:
        return len(self.ffn_hidden_sizes)

    @property
    def column_starts(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.ffn_hidden_sizes)])

    def expert_slice(self, e: int) -> slice:
        starts = self.column_starts
        return slice(int(starts[e]), int(starts[e + 1]))


class VariableSizedDMoE(Module):
    """Dropless MoE whose experts have different hidden widths.

    Args:
        hidden_size: token feature width.
        ffn_hidden_sizes: one entry per expert; each must be a multiple
            of ``block_size``.
        top_k / block_size / activation: as in :class:`repro.core.dMoE`.
    """

    def __init__(
        self,
        hidden_size: int,
        ffn_hidden_sizes: Sequence[int],
        top_k: int = 1,
        block_size: int = 128,
        activation: str = "gelu",
        load_balance_coef: float = 0.01,
        init_std: float = 0.02,
        output_scale_layers: int = 1,
        router: Optional[Module] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        sizes = np.asarray(ffn_hidden_sizes, dtype=np.int64)
        if (sizes % block_size).any():
            raise ValueError(
                f"every expert ffn size must be a multiple of block_size="
                f"{block_size}; got {sizes.tolist()}"
            )
        self.hidden_size = hidden_size
        self.num_experts = len(sizes)
        self.top_k = top_k
        self.block_size = block_size
        self.activation = activation
        self.router = router if router is not None else Router(
            hidden_size,
            self.num_experts,
            top_k=top_k,
            load_balance_coef=load_balance_coef,
            init_std=init_std,
            rng=rng,
        )
        self.experts = VariableExpertWeights(
            hidden_size,
            sizes,
            init_std=init_std,
            output_scale_layers=output_scale_layers,
            rng=rng,
        )
        self.last_plan: Optional[PaddedPlan] = None
        self.last_topology: Optional[Topology] = None
        self.last_routing: Optional[RoutingResult] = None

    @property
    def ffn_hidden_size(self) -> np.ndarray:
        """Per-expert widths — what :func:`make_topology` takes in place
        of dMoE's one width, so both layers share ``_build_dispatch``."""
        return self.experts.ffn_hidden_sizes

    def forward(self, x: Tensor) -> Tuple[Tensor, Optional[Tensor]]:
        orig_shape = x.shape
        if x.ndim == 3:
            x = x.reshape((orig_shape[0] * orig_shape[1], orig_shape[2]))

        routing = self.router(x)
        self.last_routing = routing
        # A host record, as in dMoE: a captured graph rebuilds the plan
        # and topology from each replay's routing.
        plan, topology, row_expert = graph_host(
            _build_dispatch, self, routing.expert_indices
        )

        xp = padded_gather(x, plan)
        e = self.experts
        y = expert_mlp(
            xp, e.w1, e.b1, e.w2, e.b2, topology, row_expert, self.activation,
        )
        out = padded_scatter(y, plan, routing.expert_weights)

        if len(orig_shape) == 3:
            out = out.reshape(orig_shape)
        return out, routing.aux_loss
