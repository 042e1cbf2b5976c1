"""MoE routing, permutation, and the token-dropping baseline layers."""

from repro.moe.router import (
    Router,
    RoutingResult,
    load_balancing_loss,
    router_z_loss,
    top_k_indices,
)
from repro.moe.capacity import (
    dropped_token_count,
    expert_capacity,
    min_capacity_factor,
    padding_fraction,
    tokens_per_expert,
)
from repro.moe.permute import (
    DroppingPlan,
    PaddedPlan,
    dropping_gather,
    dropping_scatter,
    make_dropping_plan,
    make_padded_plan,
    padded_gather,
    padded_scatter,
    round_up_counts,
)
from repro.moe.experts import ExpertWeights
from repro.moe.inference import moe_inference_forward
from repro.moe.moe_layer import DynamicCapacityMoELayer, MoELayer
from repro.moe.routing_alt import (
    BaseLayerRouter,
    SinkhornRouter,
    hash_assign,
    sinkhorn,
)

__all__ = [
    "Router",
    "RoutingResult",
    "top_k_indices",
    "load_balancing_loss",
    "router_z_loss",
    "expert_capacity",
    "tokens_per_expert",
    "min_capacity_factor",
    "dropped_token_count",
    "padding_fraction",
    "PaddedPlan",
    "DroppingPlan",
    "make_padded_plan",
    "make_dropping_plan",
    "padded_gather",
    "padded_scatter",
    "dropping_gather",
    "dropping_scatter",
    "round_up_counts",
    "moe_inference_forward",
    "ExpertWeights",
    "MoELayer",
    "DynamicCapacityMoELayer",
    "BaseLayerRouter",
    "SinkhornRouter",
    "hash_assign",
    "sinkhorn",
]
