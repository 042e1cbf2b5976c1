"""Token-dropping MoE layer (GShard / Switch Transformer formulation).

This is the prevalent baseline of paper §2 / Figure 1: tokens are routed,
permuted into a fixed ``(num_experts, capacity)`` buffer (dropping the
overflow, padding the slack), experts run as one batched matrix
multiplication (Figure 3A), and results are combined scaled by router
probabilities.  Dropped tokens output zero and survive through the
residual connection.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

import dataclasses

from repro.autograd import ACTIVATIONS
from repro.autograd.graph import host as graph_host
from repro.autograd.ops_fused import bias_gelu
from repro.autograd.tensor import Tensor, is_inference
from repro.moe.capacity import expert_capacity
from repro.moe.experts import ExpertWeights
from repro.moe.inference import moe_inference_forward
from repro.moe.permute import (
    DroppingPlan,
    dropping_gather,
    dropping_scatter,
    make_dropping_plan,
)
from repro.moe.router import Router, RoutingResult
from repro.nn.module import Module
from repro.observability.tracing import span
from repro.utils.rng import RngLike


def _dropping_plan_host(mod: "MoELayer", expert_indices: np.ndarray):
    """Capacity + dispatch-plan build as one :func:`repro.autograd.graph.host`
    record.

    The capacity is computed here, not passed in: a host record's result
    reaches later records by identity, so an ``int`` handed from one
    record to another would be frozen at capture.  Everything routing
    decides — the capacity, the plan and its flat index arrays — is this
    record's result, re-derived on every replay.  Also refreshes the
    module's ``last_*`` introspection state, which replays would
    otherwise leave stale.
    """
    capacity = mod._capacity(len(expert_indices), expert_indices)
    plan = make_dropping_plan(expert_indices, mod.num_experts, capacity)
    if mod.never_drops and plan.num_dropped:
        raise AssertionError("dynamic capacity must never drop tokens")
    mod.last_plan = plan
    lr = mod.last_routing
    if lr is not None and lr.expert_indices is not expert_indices:
        mod.last_routing = dataclasses.replace(lr, expert_indices=expert_indices)
    return plan


class MoELayer(Module):
    """Fixed-capacity-factor MoE layer over 2-layer MLP experts.

    Args:
        hidden_size / ffn_hidden_size: expert MLP dimensions.
        num_experts: experts in the layer (64 in the paper's models).
        capacity_factor: multiplier on the uniform share (paper §2.2);
            tokens beyond ``num_tokens/num_experts * capacity_factor`` per
            expert are dropped.
        top_k: experts per token.
        activation: expert nonlinearity.
    """

    #: True where a plan that drops a token is a bug (the no-drop baseline).
    never_drops = False

    def __init__(
        self,
        hidden_size: int,
        ffn_hidden_size: int,
        num_experts: int,
        capacity_factor: float = 1.0,
        top_k: int = 1,
        activation: str = "gelu",
        load_balance_coef: float = 0.01,
        z_loss_coef: float = 0.0,
        init_std: float = 0.02,
        output_scale_layers: int = 1,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.ffn_hidden_size = ffn_hidden_size
        self.num_experts = num_experts
        self.capacity_factor = capacity_factor
        self.top_k = top_k
        self.activation = activation
        self.router = Router(
            hidden_size,
            num_experts,
            top_k=top_k,
            load_balance_coef=load_balance_coef,
            z_loss_coef=z_loss_coef,
            init_std=init_std,
            rng=rng,
        )
        self.experts = ExpertWeights(
            num_experts,
            hidden_size,
            ffn_hidden_size,
            init_std=init_std,
            output_scale_layers=output_scale_layers,
            rng=rng,
        )
        self.last_plan: Optional[DroppingPlan] = None
        self.last_routing: Optional[RoutingResult] = None

    # ------------------------------------------------------------------
    def _capacity(self, num_tokens: int, expert_indices: np.ndarray) -> int:
        return expert_capacity(
            num_tokens, self.num_experts, self.capacity_factor, self.top_k
        )

    def _compute_experts(self, dispatched: Tensor) -> Tensor:
        """Batched-matmul expert MLP over (num_experts, capacity, hidden)."""
        e = self.experts
        if self.activation == "gelu":
            h = bias_gelu(
                dispatched @ e.w1,
                e.b1.reshape((self.num_experts, 1, e.ffn_hidden_size)),
            )
            return h @ e.w2 + e.b2.reshape((self.num_experts, 1, e.hidden_size))
        act = ACTIVATIONS[self.activation]
        h = dispatched @ e.w1 + e.b1.reshape((self.num_experts, 1, e.ffn_hidden_size))
        h = act(h)
        return h @ e.w2 + e.b2.reshape((self.num_experts, 1, e.hidden_size))

    def forward(self, x: Tensor) -> Tuple[Tensor, Optional[Tensor]]:
        """Apply the layer; returns ``(output, aux_loss)``.

        ``x`` may be ``(tokens, hidden)`` or ``(batch, seq, hidden)``; the
        output matches the input shape.
        """
        if is_inference():
            # Serving: dropless padding-free dispatch — capacity-based
            # dropping would tie a token's output to the batch around it
            # (see repro.moe.inference).
            return moe_inference_forward(self, x)
        orig_shape = x.shape
        if x.ndim == 3:
            x = x.reshape((orig_shape[0] * orig_shape[1], orig_shape[2]))

        with span("moe"):
            with span("route"):
                routing = self.router(x)
            with span("permute"):
                plan = graph_host(_dropping_plan_host, self, routing.expert_indices)
                self.last_routing = routing
                dispatched = dropping_gather(x, plan)
            with span("experts"):
                expert_out = self._compute_experts(dispatched)
            with span("unpermute"):
                out = dropping_scatter(
                    expert_out, plan, routing.expert_weights
                )

        if len(orig_shape) == 3:
            out = out.reshape(orig_shape)
        return out, routing.aux_loss


class DynamicCapacityMoELayer(MoELayer):
    """Tutel-style dMoE baseline: dynamic capacity factor (Hwang et al. 2022).

    Each forward pass sizes the capacity to the busiest expert's load, the
    smallest value that drops no tokens, so quality matches the dropless
    formulation but every expert still computes (and stores activations
    for) the *maximum* group size — the padding overhead MegaBlocks
    removes (paper §6.1).  The capacity is part of the dispatch plan's
    host record, so a captured step replays under any routing: the buffer
    grows and shrinks with the maximum, and nothing recaptures.
    """

    never_drops = True

    def __init__(
        self, hidden_size: int, ffn_hidden_size: int, num_experts: int, **kwargs
    ) -> None:
        # The capacity is read off each routing: a caller's capacity
        # factor is refused (TypeError), not ignored.
        super().__init__(
            hidden_size, ffn_hidden_size, num_experts, capacity_factor=1.0, **kwargs
        )

    def _capacity(self, num_tokens: int, expert_indices: np.ndarray) -> int:
        counts = np.bincount(expert_indices.reshape(-1), minlength=self.num_experts)
        return max(int(counts.max()), 1)
