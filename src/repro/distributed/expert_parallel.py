"""Expert-parallel dMoE: one rank's layer, recorded on one tape.

Distributed MoE training shards experts across GPUs and moves *tokens* to
their experts through all-to-alls (Lepikhin et al., 2020; §5 of the
paper).  :class:`ExpertParallelDMoE` is one rank of that dataflow over a
:class:`ProcessGroup`, built once per rank from the single-process
:class:`~repro.core.dMoE` it shards.  Its forward:

1. routes the rank's own tokens with its copy of the layer's router;
2. gathers the routed token copies in destination-rank order;
3. exchanges the (tiny) expert ids, untaped;
4. posts the token exchange;
5. builds the padded plan and block topology from the ids while the
   tokens are in flight (the comm/compute overlap of §5);
6. runs Figure 6's expert MLP (:func:`repro.core.dmoe.expert_mlp`, the
   function the single-process layer calls) over the rank's expert
   shard, and un-pads the result;
7. returns the results to their source ranks;
8. weights them by the router and scatters them to token order.

The two token exchanges are :class:`_AllToAll` tape nodes whose backward
is the reverse exchange over the same cuts, so ``out.backward(grad)`` is
the rank's whole backward: four all-to-alls per layer (what the cost
model charges), router and input gradients as in the single-process
layer, and expert gradients in the rank's own shard (never all-reduced,
per expert parallelism).

The layer runs unchanged on rank-threads (``"sim"``) and forked ranks
(``"mp"``), bit-identically, and matches the single-process dMoE on the
concatenated batch to 1e-9 — output, input, router and expert gradients
(tested).  Each rank's :class:`CommLog` holds the exact all-to-all
volumes the cost model charges.

It runs on the eager rungs only.  A captured graph would freeze the
routing-dependent cuts, and a rank recapturing mid-replay would pair its
exchanges with the wrong ones of its peers; built or called under a
capture session the layer raises :class:`ExpertParallelCaptureError`
before it routes.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import gather_rows, scatter_rows
from repro.autograd.execution import current
from repro.autograd.function import Function
from repro.autograd.tensor import Tensor
from repro.core.dmoe import dMoE, expert_mlp
from repro.core.topology_builder import expert_of_padded_row, make_topology
from repro.distributed.backend import PendingAllToAll, ProcessGroup
from repro.distributed.collectives import CommLog
from repro.distributed.mesh import DeviceMesh
from repro.moe.permute import make_padded_plan, padded_gather
from repro.nn.module import Module, Parameter
from repro.observability.tracing import span
from repro.resilience import counters as res_counters
from repro.resilience.faults import CollectiveFault, RetryPolicy


class ExpertParallelCaptureError(RuntimeError):
    """An expert-parallel layer met a capture session (the ``replay`` and
    ``cc`` rungs), which it cannot yet run under."""


def _refuse_capture() -> None:
    if current().capture is not None:
        raise ExpertParallelCaptureError(
            "ExpertParallelDMoE runs on the eager rungs only: its exchange "
            "cuts depend on routing, which a captured graph would freeze "
            "rank by rank"
        )


def _payloads_finite(received: Sequence[np.ndarray]) -> bool:
    return all(
        np.isfinite(a).all()
        for a in received
        if np.issubdtype(a.dtype, np.floating)
    )


class _AllToAll(Function):
    """An all-to-all on the tape: the rows of ``x``, cut at ``cuts`` into
    one piece per destination rank, arrive concatenated by source rank.

    ``forward(x, ep, cuts, pending)`` completes ``pending``, the exchange
    :meth:`post` already put in flight over ``ep``'s group, or posts it
    itself when ``pending`` is ``None``.  Backward sends the gradient's
    pieces back over the same cuts.  Each direction is one logical
    exchange: one ``all_to_all`` span, one record in ``ep.comm_log``,
    and ``ep``'s receipt validation and retry (:meth:`complete`).

    The reverse exchange is unconditional: an empty gradient — a rank
    with no tokens, or one that received none — still enters it, so no
    peer waits on a rank that skipped.  (The walk skips a node whose
    gradient is ``None``; every op between an exchange and the layer's
    output hands back an array, empty or not.)
    """

    @staticmethod
    def post(ep: "ExpertParallelDMoE", send: List[np.ndarray]) -> PendingAllToAll:
        """Put one logical all-to-all in flight.  Its volume — this
        rank's true off-diagonal bytes, no mean over a world it cannot
        see — is logged here, once, however many transport attempts
        :meth:`complete` ends up making."""
        group = ep.group
        if group.world > 1:
            mine = float(
                sum(s.nbytes for dst, s in enumerate(send) if dst != group.rank)
            )
            ep.comm_log.log("all_to_all", group.world, mine, max_bytes_sent=mine)
        return group.isend_all_to_all(send)

    @staticmethod
    def complete(
        ep: "ExpertParallelDMoE", send: List[np.ndarray], pending: PendingAllToAll
    ) -> List[np.ndarray]:
        """Wait for a posted all-to-all, validating receipt and
        re-issuing it under ``ep``'s retry policy (when configured)."""
        received = pending.wait()
        if ep.retry_policy is None:
            return received
        group = ep.group

        def attempt(k: int):
            nonlocal received
            if k:
                ep.retries += 1
                received = group.all_to_all(send)
            bad = not _payloads_finite(received)
            if bad:
                ep.corrupt_detected += 1
                res_counters.increment("ep_corrupt_payload_detected")
            # One rank's bad payload is everyone's retry: re-issuing is
            # itself a collective, so all ranks must take the same branch.
            if group.all_reduce(np.array([int(bad)]))[0]:
                raise CollectiveFault("all_to_all", None, k)
            return received

        return ep.retry_policy.run(attempt)

    @staticmethod
    def forward(ctx, x, ep, cuts, pending):
        send = np.split(x, cuts)
        with span("all_to_all", {"world": ep.group.world}):
            if pending is None:
                pending = _AllToAll.post(ep, send)
            received = _AllToAll.complete(ep, send, pending)
        ctx.save_for_backward(ep, np.cumsum([len(r) for r in received])[:-1])
        return np.concatenate(received)

    @staticmethod
    def backward(ctx, grad):
        ep, recv_cuts = ctx.saved
        send = np.split(grad, recv_cuts)
        with span("all_to_all", {"world": ep.group.world}):
            back = _AllToAll.complete(ep, send, _AllToAll.post(ep, send))
        return (np.concatenate(back),)


class ExpertParallelDMoE(Module):
    """One rank's share of a :class:`dMoE` whose experts are sharded
    over ``group``.

    Built once per rank — inside the rank's ``run_distributed`` function
    — from the single-process ``layer``.  The rank owns a copy of the
    layer's router and the parameters of its contiguous block of experts
    (:meth:`DeviceMesh.expert_slice`, which refuses an expert count the
    group's world does not divide).  Both are the rank's own: ``"sim"``
    ranks are threads, and a shared parameter's ``.grad`` is not
    thread-safe.  Called like the dMoE, it returns ``(output,
    aux_loss)``, so it drops into a :class:`~repro.nn.TransformerLM` as
    an FFN.

    Routing is per rank: each rank routes its own tokens, so a
    *per-token* router (the learned top-k
    :class:`~repro.moe.router.Router`, with or without weight
    normalisation) reproduces the single-process layer on the
    concatenated batch.  Routers that assign across the whole batch —
    :mod:`repro.moe.routing_alt`'s BASE and Sinkhorn — see one rank's
    tokens at a time and are a different function under expert
    parallelism by construction, and so are the auxiliary losses, which
    reduce over the rank's tokens.  The same holds for the
    non-finite-logits fallback, which spreads tokens round-robin over
    *local* token indices: outputs stay finite and every copy is
    delivered, but equality with the single-process layer is not
    promised there.

    Args:
        layer: the single-process dMoE whose experts are sharded.
        group: this rank's process group; its world is the
            expert-parallel world.
        retry_policy: when given, every token exchange (forward and
            backward) is validated on receipt — a payload containing
            NaN/Inf (a corrupted exchange, e.g. a ``corrupt_payload``
            event passed as ``run_distributed(..., faults=[...])``) is
            treated as a transient fault and the exchange is re-issued
            under the policy's bounded retry/backoff.  Retrying is a
            *collective* decision: the ranks agree through one tiny
            ``all_reduce`` whether anyone received a bad payload, and
            all re-issue or none.  ``None`` (default) keeps the
            unvalidated fast path.

    Per-rank readings live on the module: ``comm_log`` holds this rank's
    true off-diagonal bytes, one record per logical token exchange;
    ``tokens_received`` is the number of token copies the last forward
    computed on this shard; ``corrupt_detected`` counts non-finite
    payloads this rank received and ``retries`` the exchanges it
    re-issued.
    """

    def __init__(
        self,
        layer: dMoE,
        group: ProcessGroup,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        _refuse_capture()
        super().__init__()
        mine = DeviceMesh(group.world, group.world).expert_slice(
            group.rank, layer.num_experts
        )
        self.group = group
        self.retry_policy = retry_policy
        self.local_experts = len(mine)
        self.hidden_size = layer.hidden_size
        self.ffn_hidden_size = layer.ffn_hidden_size
        self.block_size = layer.block_size
        self.activation = layer.activation
        self.router = copy.deepcopy(layer.router)
        e = layer.experts
        self.w1, self.b1, self.w2, self.b2 = (
            Parameter(p.data[mine.start : mine.stop].copy())
            for p in (e.w1, e.b1, e.w2, e.b2)
        )
        self.comm_log = CommLog()
        self.tokens_received = 0
        self.corrupt_detected = 0
        self.retries = 0
        self.train(layer.training)

    def _bucket(self, expert_indices: np.ndarray):
        """Group the routed copies by destination rank.

        Returns ``(order, cuts, local_ids)``: the flat ``(token, k)``
        copy index of each copy in destination order (arrival order
        within a destination), where ``np.split`` breaks that order into
        one piece per destination, and each copy's expert id on its
        destination's shard.
        """
        experts = expert_indices.reshape(-1)
        dest = experts // self.local_experts
        order = np.argsort(dest, kind="stable")
        cuts = np.cumsum(np.bincount(dest, minlength=self.group.world))[:-1]
        return order, cuts, (experts % self.local_experts)[order].astype(np.int64)

    def forward(self, x: Tensor):
        """Apply the rank's share of the layer; returns ``(output,
        aux_loss)``.  ``x`` may be ``(tokens, hidden)`` or ``(batch,
        seq, hidden)``."""
        _refuse_capture()
        shape = x.shape
        if x.ndim == 3:
            x = x.reshape((shape[0] * shape[1], shape[2]))
        local, f = self.local_experts, self.ffn_hidden_size

        # (1)-(2) Route, then gather the copies in destination order.
        routing = self.router(x)
        order, cuts, local_ids = self._bucket(routing.expert_indices)
        rows = order // routing.expert_indices.shape[1]
        sent = gather_rows(x, rows)

        # (3) Expert ids first — a few hundred int64s whose arrival
        # unlocks all the host-side planning — (4) then the tokens, (5)
        # in flight while the plan and topology are built.
        recv_ids = self.group.all_to_all(np.split(local_ids, cuts))
        pending = _AllToAll.post(self, np.split(sent.data, cuts))
        plan = make_padded_plan(
            np.concatenate(recv_ids)[:, None], local, self.block_size
        )
        topology = make_topology(plan, f)
        tokens = _AllToAll.apply(sent, self, cuts, pending)
        self.tokens_received = len(tokens)

        # (6) Figure 6's expert MLP over this rank's shard, un-padded
        # back to arrival order (the router weights apply at the source).
        y = expert_mlp(
            padded_gather(tokens, plan),
            self.w1,
            self.b1.reshape((local * f,)),
            self.w2.reshape((local * f, self.hidden_size)),
            self.b2,
            topology,
            expert_of_padded_row(plan),
            self.activation,
        )
        y = scatter_rows(y, plan.gather_indices, len(tokens))

        # (7) Return exchange, (8) then the weighted combine.
        recv_cuts = np.cumsum([len(ids) for ids in recv_ids])[:-1]
        back = _AllToAll.apply(y, self, recv_cuts, None)
        weights = gather_rows(routing.expert_weights.reshape((-1, 1)), order)
        out = scatter_rows(back * weights, rows, len(x))
        if len(shape) == 3:
            out = out.reshape(shape)
        return out, routing.aux_loss
