"""Elastic resume: reshard expert state across world sizes (N → M).

A sharded checkpoint records, per expert shard, the rank that owned the
expert under the save-time :class:`repro.distributed.DeviceMesh` (world
size N).  Resuming on a different mesh (world size M) re-derives
ownership with ``DeviceMesh.owner_of_expert`` and emits a
:class:`ReshardPlan` — one :class:`ExpertMove` per expert whose owner
changed.  Because every expert lives in its own shard, the move is a
whole-file remap: no shard is ever sliced or re-encoded, so expert
weights and their Adam moments land bit-identically regardless of the
direction of the change (grow N→M, shrink M→N, or round-trip N→M→N).

Non-expert state (dense weights, RNG streams, LR-schedule step) is
replicated across ranks in this design, so elastic resume
restores it verbatim; the trainer logs the world-size change and the
``ckpt/elastic_resumes`` counter records it.

The planner validates the usual mesh divisibility contract up front:
``M`` must divide the expert count (``DeviceMesh.experts_per_rank``
raises otherwise), so a 7-rank resume of an 8-expert model fails loudly
at plan time rather than as a shape error mid-load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.checkpoint.common import CheckpointError, CheckpointState, logger

# Type-only: importing repro.distributed at module scope would pull in
# repro.training mid-initialization (the trainer imports this package).
if TYPE_CHECKING:  # pragma: no cover
    from repro.distributed.mesh import DeviceMesh


@dataclass(frozen=True)
class ExpertMove:
    """One expert's ownership change between meshes."""

    expert: int
    src_rank: int
    dst_rank: int


@dataclass
class ReshardPlan:
    """Expert ownership remap between a save-time and a load-time mesh."""

    num_experts: int
    src_mesh: DeviceMesh
    dst_mesh: DeviceMesh
    moves: List[ExpertMove] = field(default_factory=list)
    #: Experts whose owner is unchanged (stay-local fast path).
    stationary: int = 0

    def summary(self) -> Dict[str, Any]:
        return {
            "num_experts": self.num_experts,
            "src_world": self.src_mesh.expert_parallel,
            "dst_world": self.dst_mesh.expert_parallel,
            "moves": len(self.moves),
            "stationary": self.stationary,
        }


def plan_reshard(
    num_experts: int, src_mesh: DeviceMesh, dst_mesh: DeviceMesh
) -> ReshardPlan:
    """Plan the expert remap from ``src_mesh`` to ``dst_mesh``.

    Raises :class:`CheckpointError` when either mesh cannot hold
    ``num_experts`` evenly (the same contract ``experts_per_rank``
    enforces during training).
    """
    plan = ReshardPlan(num_experts, src_mesh, dst_mesh)
    try:
        src_mesh.experts_per_rank(num_experts)
        dst_mesh.experts_per_rank(num_experts)
    except ValueError as exc:
        raise CheckpointError(
            f"cannot reshard {num_experts} experts from world "
            f"{src_mesh.expert_parallel} to {dst_mesh.expert_parallel}: {exc}"
        ) from exc
    for e in range(num_experts):
        src = src_mesh.owner_of_expert(e, num_experts)
        dst = dst_mesh.owner_of_expert(e, num_experts)
        if src == dst:
            plan.stationary += 1
        else:
            plan.moves.append(ExpertMove(e, src, dst))
    return plan


def maybe_plan_reshard(
    state: CheckpointState,
    saved_mesh: Dict[str, Any],
    mesh: DeviceMesh,
) -> Optional[ReshardPlan]:
    """Plan a reshard for a loaded state when the mesh changed.

    Returns ``None`` when the load-time mesh matches the save-time mesh
    (the bit-exact N==N fast path needs no plan).  Otherwise validates
    that every per-expert tensor in the checkpoint agrees on the expert
    count, plans the remap, and bumps the elastic-resume counters.
    """
    from repro.distributed.mesh import DeviceMesh

    src_mesh = DeviceMesh(
        world=int(saved_mesh["world"]),
        expert_parallel=int(saved_mesh["expert_parallel"]),
    )
    if (
        src_mesh.world == mesh.world
        and src_mesh.expert_parallel == mesh.expert_parallel
    ):
        return None
    counts = {n for _, n in state.expert_axes.values()}
    if not counts:
        # A dense checkpoint reshards trivially: nothing expert-owned.
        logger.info(
            "elastic resume: world %d -> %d with no expert state",
            src_mesh.world,
            mesh.world,
        )
        counts = {0}
    if len(counts) != 1:
        raise CheckpointError(
            f"checkpoint holds expert tensors with differing expert "
            f"counts {sorted(counts)}; cannot plan a single reshard"
        )
    num_experts = counts.pop()
    plan = (
        plan_reshard(num_experts, src_mesh, mesh)
        if num_experts
        else ReshardPlan(0, src_mesh, mesh)
    )
    from repro.observability.metrics import registry

    reg = registry()
    reg.counter("ckpt/elastic_resumes").inc()
    reg.counter("ckpt/reshard_moves").inc(len(plan.moves))
    return plan
