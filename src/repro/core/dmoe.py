"""dMoE: the dropless Mixture-of-Experts layer of MegaBlocks.

Follows the pseudo-code of Figure 6 exactly:

1. route tokens to experts (indices + confidence weights);
2. build the block-sparse topology from the assignments;
3. ``padded_gather`` groups tokens by expert, padding each group to a
   multiple of the block size;
4. experts compute as an SDD followed by a DSD over the block-diagonal
   topology (Figure 3C) — *no token is ever dropped and no slot beyond
   the block-rounding is padded*;
5. ``padded_scatter`` un-permutes and scales by router weights.

Backward passes run through the sparse autograd wrappers, issuing the
SDD^T / DS^TD / DSD^T / DD^TS products of §5.1.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import ACTIVATIONS, getitem, memplan
from repro.autograd.graph import host as graph_host
from repro.autograd.tensor import Tensor, is_inference
from repro.core.topology_builder import expert_of_padded_row, make_topology
from repro.moe.experts import ExpertWeights
from repro.moe.inference import moe_inference_forward
from repro.moe.permute import (
    PaddedPlan,
    make_padded_plan,
    padded_gather,
    padded_scatter,
)
from repro.moe.router import Router, RoutingResult
from repro.nn.module import Module
from repro.observability.tracing import span
from repro.sparse.autograd_ops import (
    dsd_mm,
    sdd_mm,
    sparse_bias_add,
    sparse_bias_gelu,
)
from repro.sparse.dispatch import analyze
from repro.sparse.topology import Topology
from repro.utils.rng import RngLike


def expert_mlp(
    xp: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    topology: Topology,
    row_expert: np.ndarray,
    activation: str,
) -> Tensor:
    """Figure 6's step 4: SDD -> bias + activation -> DSD -> + b2.

    The one expert MLP in ``src/``: the dMoE and each expert-parallel
    rank (over its shard) both compute here.  ``w1`` is read where it
    lives, expert-major ``(experts, hidden, ffn)`` as ``ExpertWeights``
    stores it (the sparse products index the experts' bands themselves
    and return ``w1``'s gradient in the same form).  The rest is flat —
    ``b1`` ``(experts * ffn,)``, ``w2`` ``(experts * ffn, hidden)`` —
    ``b2`` is ``(experts, hidden)`` and ``row_expert`` names the expert
    owning each padded row of ``xp``.
    """
    h = sdd_mm(xp, w1, topology)
    if activation == "gelu":
        # Fused column-bias + GELU over the sparse values: one tape node
        # for the bias add and the activation.
        h = sparse_bias_gelu(h, b1, topology)
    else:
        h = sparse_bias_add(h, b1, topology)
        h = ACTIVATIONS[activation](h)
    y = dsd_mm(h, w2, topology)
    return y + getitem(b2, row_expert)


def _build_dispatch(mod: "dMoE", expert_indices: np.ndarray):
    """Plan + topology + padded-row expert map for one routing outcome.

    This is a :func:`repro.autograd.graph.host` computation: a captured
    graph re-executes it each replay, so a shifted tokens-per-expert
    distribution flows into fresh permutation indices and a fresh
    topology without invalidating the graph.  On the compiled rung the
    kernel table's ``dispatch`` entry replaces it — one C call writing
    every array into buffers bound at capacity — and this NumPy build
    is that entry's reference.
    """
    plan = make_padded_plan(expert_indices, mod.num_experts, mod.block_size)
    topology = make_topology(plan, mod.ffn_hidden_size)
    row_expert = expert_of_padded_row(plan)
    remember_dispatch(mod, plan, topology, row_expert, expert_indices)
    return plan, topology, row_expert


def remember_dispatch(mod, plan, topology, row_expert, expert_indices) -> None:
    """Refresh the module's ``last_*`` introspection state, which replays
    would otherwise leave stale (module ``forward`` bodies do not run).
    ``last_routing`` is updated in place, not copied: see :class:`dMoE`
    for how long its arrays hold.

    Also declares the extents routing sizes to a memory plan recording
    this micro batch (:func:`repro.autograd.memplan.routed`): ``T*k``
    routed copies over ``E`` experts plan at most ``T*k + E*(bs - 1)``
    padded rows — the rows of the plan's index arrays, of
    ``row_expert`` and of what is sized from the topology — in whole
    blocks of ``C`` block columns (the topology's nonzero blocks), and a
    grouped product's staging (sized from its dispatch plan) never
    exceeds one expert holding every copy."""
    T, k = expert_indices.shape
    bs, E = mod.block_size, mod.num_experts
    C = mod.ffn_hidden_size // bs
    rows = (T * k + E * (bs - 1)) // bs
    P = topology.shape[0]
    for routed_rows in (plan.gather_indices, plan.copy_indices, row_expert, topology):
        memplan.routed(routed_rows, P, rows * bs)
    memplan.routed(topology, topology.nnz_blocks, rows * C)
    groups = analyze(topology)
    if groups is not None:
        memplan.routed(
            groups, groups.max_group_blocks * bs * bs, -(-T * k // bs) * C * bs * bs
        )
    mod.last_plan = plan
    mod.last_topology = topology
    lr = mod.last_routing
    if lr is not None:
        # On a replay it is the captured result: keep its routing-stats
        # view of expert assignment current.  (Its Tensor fields are not
        # refreshed; nothing reads them after the step.)
        lr.expert_indices = expert_indices
        memplan.outlives(expert_indices)


class dMoE(Module):
    """Dropless MoE layer over 2-layer MLP experts (block-sparse compute).

    Args:
        hidden_size / ffn_hidden_size: expert MLP dimensions;
            ``ffn_hidden_size`` must be a multiple of ``block_size``.
        num_experts: experts in the layer.
        top_k: experts per token.
        block_size: sparse block side (128 in the paper; smaller values
            keep tests fast and are numerically identical).
        activation: expert nonlinearity.

    After each training step ``last_plan``, ``last_topology`` and
    ``last_routing`` describe its last micro batch.  On the compiled
    rung their arrays are the dispatch unit's capacity buffers and the
    router's arena buffers, and ``last_routing`` is the captured result
    refreshed in place: they are valid until the layer's next step,
    which rewrites them.  Copy what must outlive it.
    """

    def __init__(
        self,
        hidden_size: int,
        ffn_hidden_size: int,
        num_experts: int,
        top_k: int = 1,
        block_size: int = 128,
        activation: str = "gelu",
        load_balance_coef: float = 0.01,
        z_loss_coef: float = 0.0,
        init_std: float = 0.02,
        output_scale_layers: int = 1,
        router: Optional[Module] = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__()
        if ffn_hidden_size % block_size:
            raise ValueError(
                f"ffn_hidden_size={ffn_hidden_size} must be a multiple of "
                f"block_size={block_size}"
            )
        self.hidden_size = hidden_size
        self.ffn_hidden_size = ffn_hidden_size
        self.num_experts = num_experts
        self.top_k = top_k
        self.block_size = block_size
        self.activation = activation
        # Any router returning a RoutingResult works (see
        # repro.moe.routing_alt for BASE / Sinkhorn alternatives).
        self.router = router if router is not None else Router(
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
        self.last_plan: Optional[PaddedPlan] = None
        self.last_topology: Optional[Topology] = None
        self.last_routing: Optional[RoutingResult] = None

    def forward(self, x: Tensor) -> Tuple[Tensor, Optional[Tensor]]:
        """Apply the layer; returns ``(output, aux_loss)``.

        ``x`` may be ``(tokens, hidden)`` or ``(batch, seq, hidden)``.
        """
        if is_inference():
            # Serving: padding-free grouped GEMMs, no topology build, no
            # tape, no aux loss (repro.moe.inference).
            return moe_inference_forward(self, x)
        orig_shape = x.shape
        if x.ndim == 3:
            x = x.reshape((orig_shape[0] * orig_shape[1], orig_shape[2]))

        with span("moe"):
            # (1) Assign tokens to experts.
            with span("route"):
                routing = self.router(x)

            # (2) Create the sparse matrix topology (Figure 3C), the
            # permutation plan and the padded-row expert map.  Eager
            # builds them in NumPy; the compiled rung in one C call.
            self.last_routing = routing
            with span("topology"):
                plan, topology, row_expert = graph_host(
                    _build_dispatch, self, routing.expert_indices
                )

            # (3) Permute the tokens to group by expert (padded to blocks).
            with span("permute"):
                xp = padded_gather(x, plan)

            # (4) Compute the expert layers: SDD -> activation -> DSD.
            with span("experts"):
                e = self.experts
                y = expert_mlp(
                    xp, e.w1, e.b1_flat(), e.w2_flat(), e.b2,
                    topology, row_expert, self.activation,
                )

            # (5) Un-permute the tokens and scale by router confidence.
            with span("unpermute"):
                out = padded_scatter(y, plan, routing.expert_weights)

        if len(orig_shape) == 3:
            out = out.reshape(orig_shape)
        return out, routing.aux_loss
