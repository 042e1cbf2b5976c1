"""Expert-parallel dMoE, written once from one rank's point of view.

Distributed MoE training shards experts across GPUs and moves *tokens* to
their experts through all-to-alls (Lepikhin et al., 2020; §5 of the
paper).  One rank of that dataflow, over a :class:`ProcessGroup`:

1. route the rank's own tokens with the layer's (replicated) router;
2. bucket token copies by destination rank and exchange them — the
   (tiny) expert ids first, then the tokens, posted asynchronously
   while the rank builds its padded plan and block topology from the ids
   (the comm/compute overlap of §5);
3. run Figure 6's expert MLP (:func:`repro.core.dmoe.expert_mlp`, the
   same function the single-process layer calls) over the rank's expert
   shard and the tokens it received;
4. return the results to their source ranks (all-to-all #2) and combine
   them with the router weights.

With an upstream gradient the same body continues into the backward
pass: output gradients route through two more all-to-alls (four per
layer in total, exactly what the cost model charges), the block-sparse
backward products run on each rank's shard, and expert weight gradients
stay rank-local (never all-reduced, per expert parallelism).  Routing is
treated as fixed during backward (the router projection trains through
the single-process path).

The body runs unchanged on rank-threads (``"sim"``) and forked ranks
(``"mp"``), bit-identically; "in process" means
``run_distributed(..., backend="sim")``, which is all
:meth:`ExpertParallelDMoE.forward` / :meth:`~ExpertParallelDMoE
.forward_backward` do.  The result matches the single-process
:class:`repro.core.dMoE` on the concatenated batch to 1e-9 (tested), and
the :class:`CommLog` captures the exact all-to-all volumes the cost
model charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import gather_rows, scatter_rows
from repro.autograd.tensor import Tensor
from repro.core.dmoe import dMoE, expert_mlp
from repro.core.topology_builder import expert_of_padded_row, make_topology
from repro.distributed.backend import ProcessGroup, run_distributed
from repro.distributed.collectives import CommLog
from repro.distributed.mesh import DeviceMesh
from repro.moe.permute import make_padded_plan, padded_gather
from repro.resilience import counters as res_counters
from repro.resilience.faults import CollectiveFault, RetryPolicy


@dataclass
class ExpertParallelResult:
    """Outputs of an expert-parallel forward across the whole mesh."""

    outputs_per_rank: List[np.ndarray]
    tokens_received_per_rank: List[int]
    comm_log: CommLog


@dataclass
class ExpertParallelRankResult:
    """What one rank produced — everything a caller may want from a
    forked rank has to come back through this value.

    ``comm_log`` holds this rank's true off-diagonal bytes, one record
    per logical all-to-all.  ``input_grad`` / ``expert_grads`` (the
    ``w1/b1/w2/b2`` gradients of the rank's *shard*) are set by the
    backward pass only.  ``corrupt_detected`` counts non-finite payloads
    this rank received, ``retries`` the exchanges it re-issued.
    """

    output: Optional[np.ndarray] = None
    tokens_received: int = 0
    comm_log: CommLog = field(default_factory=CommLog)
    input_grad: Optional[np.ndarray] = None
    expert_grads: Optional[Dict[str, np.ndarray]] = None
    corrupt_detected: int = 0
    retries: int = 0


def _payloads_finite(received: Sequence[np.ndarray]) -> bool:
    return all(
        np.isfinite(a).all()
        for a in received
        if np.issubdtype(a.dtype, np.floating)
    )


class ExpertParallelDMoE:
    """Runs a :class:`dMoE` with its experts sharded over a mesh.

    Routing is per rank: each rank calls the layer's own router on its
    own tokens, so a *per-token* router (the learned top-k
    :class:`~repro.moe.router.Router`, with or without weight
    normalisation) reproduces the single-process layer on the
    concatenated batch.  Routers that assign across the whole batch —
    :mod:`repro.moe.routing_alt`'s BASE and Sinkhorn — see one rank's
    tokens at a time and are a different function under expert
    parallelism by construction.  The same holds for the
    non-finite-logits fallback, which spreads tokens round-robin over
    *local* token indices: outputs stay finite and every copy is
    delivered, but equality with the single-process layer is not
    promised there.

    Args:
        layer: the single-process dMoE whose experts are sharded.
        mesh: device mesh supplying the expert-parallel world size.
        retry_policy: when given, every token-bearing all-to-all is
            validated on receipt — a payload containing NaN/Inf (a
            corrupted exchange, e.g. a ``corrupt_payload`` event passed
            as ``run_distributed(..., faults=[...])``) is treated as a
            transient fault and the exchange is re-issued under the
            policy's bounded retry/backoff.  Retrying is a *collective*
            decision: the ranks agree through one tiny ``all_reduce``
            whether anyone received a bad payload, and all re-issue or
            none.  ``None`` (default) keeps the unvalidated fast path.
            The policy's own counters are a convenience of the
            in-process drivers only (rank-threads share the object and
            bump it unsynchronised; a forked rank bumps a copy): read
            :class:`ExpertParallelRankResult` for exact per-rank counts.
    """

    def __init__(
        self,
        layer: dMoE,
        mesh: DeviceMesh,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if layer.num_experts % mesh.expert_parallel:
            raise ValueError(
                f"{layer.num_experts} experts not divisible over "
                f"{mesh.expert_parallel} expert-parallel ranks"
            )
        self.layer = layer
        self.mesh = mesh
        self.local_experts = layer.num_experts // mesh.expert_parallel
        self.retry_policy = retry_policy

    # ------------------------------------------------------------------
    # Stages of one rank's dataflow.
    # ------------------------------------------------------------------
    def _route_and_bucket(self, x: np.ndarray):
        """Route one rank's tokens with the layer's own router and group
        the routed copies by destination rank.

        Returns ``(rows, cuts, local_ids, weights)``, one entry per
        routed copy, grouped by destination (arrival order within a
        group): the copy's source token row, its expert id on the
        destination's shard and its router weight.  ``np.split(a, cuts)``
        breaks any array in that order into one piece per destination.
        Indices and weights are constants (fixed-routing semantics).
        """
        routing = self.layer.router(Tensor(x))
        top_k = routing.expert_indices.shape[1]
        experts = routing.expert_indices.reshape(-1)
        dest = experts // self.local_experts
        order = np.argsort(dest, kind="stable")
        cuts = np.cumsum(np.bincount(dest, minlength=self.mesh.expert_parallel))
        return (
            order // top_k,
            cuts[:-1],
            (experts % self.local_experts)[order].astype(np.int64),
            routing.expert_weights.data.reshape(-1)[order],
        )

    def _build_local_plan(self, local_expert_ids: np.ndarray):
        """Padded plan + block topology for one rank's received tokens.

        Pure host-side metadata construction — it needs only the (tiny)
        expert-id assignments, not the token payloads, which is exactly
        what lets the rank body run it *while* the token all-to-all is
        still in flight.
        """
        plan = make_padded_plan(
            local_expert_ids[:, None], self.local_experts, self.layer.block_size
        )
        topology = make_topology(plan, self.layer.ffn_hidden_size)
        return plan, topology

    def _post(self, group: ProcessGroup, send, res: ExpertParallelRankResult):
        """Post one logical all-to-all.  Its volume — this rank's true
        off-diagonal bytes, no mean over a world it cannot see — is
        accounted here, once, however many transport attempts
        :meth:`_receive` ends up making."""
        if group.world > 1:
            mine = float(
                sum(s.nbytes for dst, s in enumerate(send) if dst != group.rank)
            )
            res.comm_log.log("all_to_all", group.world, mine, max_bytes_sent=mine)
        return group.isend_all_to_all(send)

    def _receive(self, group: ProcessGroup, send, pending, res):
        """Complete a posted all-to-all, validating receipt and
        re-issuing it under the retry policy (when configured)."""
        received = pending.wait()
        if self.retry_policy is None:
            return received

        def attempt(k: int):
            nonlocal received
            if k:
                res.retries += 1
                received = group.all_to_all(send)
            bad = not _payloads_finite(received)
            if bad:
                res.corrupt_detected += 1
                res_counters.increment("ep_corrupt_payload_detected")
            # One rank's bad payload is everyone's retry: re-issuing is
            # itself a collective, so all ranks must take the same branch.
            if group.all_reduce(np.array([int(bad)]))[0]:
                raise CollectiveFault("all_to_all", None, k)
            return received

        return self.retry_policy.run(attempt)

    def _exchange(self, group: ProcessGroup, send, res) -> List[np.ndarray]:
        return self._receive(group, send, self._post(group, send, res), res)

    # ------------------------------------------------------------------
    # The rank body.
    # ------------------------------------------------------------------
    def forward_rank(
        self, group: ProcessGroup, x_local: np.ndarray
    ) -> ExpertParallelRankResult:
        """One rank's distributed forward over a live ProcessGroup."""
        return self._rank_step(group, x_local, None)

    def forward_backward_rank(
        self, group: ProcessGroup, x_local: np.ndarray, grad_local: np.ndarray
    ) -> ExpertParallelRankResult:
        """One rank's distributed forward + backward (fixed routing):
        four all-to-alls in total (token dispatch, result return,
        output-gradient dispatch, input-gradient return)."""
        return self._rank_step(group, x_local, grad_local)

    def _rank_step(
        self,
        group: ProcessGroup,
        x_local: np.ndarray,
        grad_local: Optional[np.ndarray],
    ) -> ExpertParallelRankResult:
        """Forward, then backward when ``grad_local`` is given.

        Everything tapes onto rank-private leaf tensors (the rank's
        tokens, the tokens it received, views of its expert shard) —
        ranks of the ``"sim"`` backend are threads and must share no
        tape.  Forward-only is the same body over non-grad tensors, so
        both directions run one code path.
        """
        if group.world != self.mesh.expert_parallel:
            raise ValueError(
                f"group world {group.world} != mesh expert_parallel "
                f"{self.mesh.expert_parallel}"
            )
        layer, local = self.layer, self.local_experts
        h, f = layer.hidden_size, layer.ffn_hidden_size
        train = grad_local is not None
        res = ExpertParallelRankResult()

        # (1) Route and bucket; the dispatch gather is taped.
        x = Tensor(np.asarray(x_local), requires_grad=train)
        rows, cuts, local_ids, weights = self._route_and_bucket(x.data)
        sent = gather_rows(x, rows)

        # (2) Expert ids first — a few hundred int64s whose arrival
        # unlocks all the host-side planning — then the tokens, in
        # flight while the plan and topology are built.
        recv_ids = group.all_to_all(np.split(local_ids, cuts))
        recv_cuts = np.cumsum([len(ids) for ids in recv_ids])[:-1]
        send_tokens = np.split(sent.data, cuts)
        pending = self._post(group, send_tokens, res)
        plan, topology = self._build_local_plan(np.concatenate(recv_ids))
        recv_tokens = self._receive(group, send_tokens, pending, res)

        # (3) Figure 6's expert MLP over this rank's shard.
        tokens = Tensor(np.concatenate(recv_tokens), requires_grad=train)
        res.tokens_received = len(tokens)
        shard = slice(group.rank * local, (group.rank + 1) * local)
        e = layer.experts
        w1, b1, w2, b2 = (
            Tensor(p.data[shard], requires_grad=train)
            for p in (e.w1, e.b1, e.w2, e.b2)
        )
        y = expert_mlp(
            padded_gather(tokens, plan),
            w1,
            b1.reshape((local * f,)),
            w2.reshape((local * f, h)),
            b2,
            topology,
            expert_of_padded_row(plan),
            layer.activation,
        )
        # Un-pad back to arrival order (weights apply at the source).
        y = scatter_rows(y, plan.gather_indices, len(tokens))

        # (4) Return exchange, then the weighted combine at the source.
        back = self._exchange(group, np.split(y.data, recv_cuts), res)
        returned = Tensor(np.concatenate(back), requires_grad=train)
        out = scatter_rows(returned * Tensor(weights[:, None]), rows, len(x))
        res.output = out.data
        if not train:
            return res

        # Backward: combine -> grad all-to-all -> local experts -> grad
        # all-to-all -> dispatch gather.  The collectives live outside
        # the tape; gradients hop between the taped stages by hand.
        out.backward(grad_local)
        dy = self._exchange(group, np.split(returned.grad, cuts), res)
        y.backward(np.concatenate(dy))
        dx = self._exchange(group, np.split(tokens.grad, recv_cuts), res)
        sent.backward(np.concatenate(dx))
        res.input_grad = x.grad
        res.expert_grads = {
            "w1": w1.grad, "b1": b1.grad, "w2": w2.grad, "b2": b2.grad
        }
        return res

    # ------------------------------------------------------------------
    # In-process drivers: every rank of the mesh as a "sim" rank-thread.
    # ------------------------------------------------------------------
    def _run_ranks(self, x_per_rank, grad_per_rank=None):
        world = self.mesh.expert_parallel
        if len(x_per_rank) != world:
            raise ValueError(
                f"expected {world} per-rank inputs, got {len(x_per_rank)}"
            )
        grads = grad_per_rank if grad_per_rank is not None else [None] * world
        ranks = run_distributed(
            lambda g: self._rank_step(g, x_per_rank[g.rank], grads[g.rank]),
            world,
            backend="sim",
        ).values
        # One record per logical exchange: mean per-rank bytes, the
        # per-source breakdown and the straggler's volume.
        log = CommLog()
        for records in zip(*(r.comm_log.records for r in ranks)):
            by_rank = [rec.bytes_sent_per_rank for rec in records]
            log.log(
                "all_to_all",
                world,
                float(np.mean(by_rank)),
                bytes_by_rank=by_rank,
                max_bytes_sent=float(max(by_rank)),
            )
        result = ExpertParallelResult(
            outputs_per_rank=[r.output for r in ranks],
            tokens_received_per_rank=[r.tokens_received for r in ranks],
            comm_log=log,
        )
        return result, ranks

    def forward(self, x_per_rank: Sequence[np.ndarray]) -> ExpertParallelResult:
        """Run the distributed forward over per-rank token batches."""
        return self._run_ranks(x_per_rank)[0]

    def forward_backward(
        self,
        x_per_rank: Sequence[np.ndarray],
        grad_per_rank: Sequence[np.ndarray],
    ):
        """Distributed forward + backward with fixed routing.

        Each rank's shard gradients accumulate into ``self.layer.experts``
        parameters.  Returns ``(ExpertParallelResult,
        input_grads_per_rank)``; input gradients exclude the router-score
        path (routing is fixed).
        """
        result, ranks = self._run_ranks(x_per_rank, grad_per_rank)
        local = self.local_experts
        for name, p in self.layer.experts.named_parameters():
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
            for r, rank in enumerate(ranks):
                p.grad[r * local : (r + 1) * local] += rank.expert_grads[name]
        return result, [rank.input_grad for rank in ranks]
