"""Expert-parallel dMoE: one rank's layer, recorded on one tape.

Distributed MoE training shards experts across GPUs and moves *tokens* to
their experts through all-to-alls (Lepikhin et al., 2020; §5 of the
paper).  :class:`ExpertParallelDMoE` is one rank of that dataflow over a
:class:`ProcessGroup`, built once per rank from the single-process
:class:`~repro.core.dMoE` it shards.  Its forward:

1. routes the rank's own tokens with its copy of the layer's router;
2. buckets the routed copies by destination rank and exchanges their
   (tiny) expert ids;
3. gathers the copies in destination order and posts the token exchange;
4. builds the padded plan and topology from the received ids with the
   dMoE's own dispatch build, while the tokens are in flight (§5's
   comm/compute overlap), then waits;
5. runs Figure 6's expert MLP (:func:`repro.core.dmoe.expert_mlp`) over
   the rank's shard, and returns the results to their source ranks;
6. weights them by the router and scatters them to token order.

Steps 2–4 are host records (:func:`repro.autograd.graph.host`) that a
captured graph re-runs, exchanges included, on every replay: a rank
steps through :func:`~repro.training.step.run_step` on every rung, and
``cc`` plans with the kernel table's native ``dispatch`` entry.  The
dispatch is planned for every rank's copies (``max_copies``), the most
that can arrive, so moving routing stays on the memory plan.  The graph
decides each replayed guard over the group
(:func:`~repro.autograd.graph.exchanges_with`): every rank recaptures a
micro batch, or none does.

The two token exchanges are tape nodes whose backward is the reverse
exchange, so ``out.backward(grad)`` is the rank's whole backward: four
all-to-alls per layer (what the cost model charges), router and input
gradients as in the single-process layer, and expert gradients in the
rank's own shard, whose parameters carry ``shard_group``: the
data-parallel sync leaves them out, and the clip's norm sums them over
the group (:mod:`repro.training.step`).  ``"sim"`` and ``"mp"`` ranks
are bit-identical, and match the single-process dMoE on the concatenated
batch to 1e-9 (tested).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.autograd import arena, gather_rows, scatter_rows
from repro.autograd.function import Function
from repro.autograd.graph import exchanges_with
from repro.autograd.graph import host as graph_host
from repro.autograd.tensor import Tensor
from repro.core.dmoe import _build_dispatch, dMoE, expert_mlp
from repro.distributed.backend import PendingAllToAll, ProcessGroup
from repro.distributed.collectives import CommLog
from repro.distributed.mesh import DeviceMesh
from repro.nn.module import Module, Parameter
from repro.observability.tracing import span
from repro.resilience import counters as res_counters
from repro.resilience.faults import CollectiveFault, RetryPolicy


# ----------------------------------------------------------------------
# One logical all-to-all: post, then complete.
# ----------------------------------------------------------------------
def _post(ep: "ExpertParallelDMoE", send: List[np.ndarray]) -> PendingAllToAll:
    """Put one logical all-to-all in flight.  Its volume — this rank's
    true off-diagonal bytes, no mean over a world it cannot see — is
    logged here, once, however many transport attempts :func:`_complete`
    ends up making."""
    group = ep.group
    if group.world > 1:
        mine = float(sum(s.nbytes for dst, s in enumerate(send) if dst != group.rank))
        ep.comm_log.log("all_to_all", group.world, mine, max_bytes_sent=mine)
    return group.isend_all_to_all(send)


def _complete(
    ep: "ExpertParallelDMoE", send: List[np.ndarray], pending: PendingAllToAll
) -> np.ndarray:
    """Wait for a posted all-to-all, validating receipt and re-issuing it
    under ``ep``'s retry policy (when configured); returns the arrivals
    concatenated by source rank."""
    received = pending.wait()
    if ep.retry_policy is not None:
        group = ep.group

        def attempt(k: int):
            nonlocal received
            if k:
                ep.retries += 1
                received = group.all_to_all(send)
            bad = not all(
                np.isfinite(a).all() for a in received if a.dtype.kind == "f"
            )
            if bad:
                ep.corrupt_detected += 1
                res_counters.increment("ep_corrupt_payload_detected")
            # One rank's bad payload is everyone's retry: re-issuing is
            # itself a collective, so all ranks must take the same branch.
            if group.all_reduce(np.array([int(bad)]))[0]:
                raise CollectiveFault("all_to_all", None, k)

        ep.retry_policy.run(attempt)
    return np.concatenate(received)


def _exchange(ep: "ExpertParallelDMoE", send: List[np.ndarray]) -> np.ndarray:
    """One logical exchange under one ``all_to_all`` span."""
    with span("all_to_all", {"world": ep.group.world}):
        return _complete(ep, send, _post(ep, send))


# ----------------------------------------------------------------------
# The routing-dependent host work: re-run by every replay.
# ----------------------------------------------------------------------
@dataclass
class _Posted:
    """The token exchange in flight."""

    send: List[np.ndarray]
    pending: PendingAllToAll


def _route(ep: "ExpertParallelDMoE", expert_indices: np.ndarray) -> tuple:
    """Bucket the routed copies by destination (their order and token
    rows, cut by destination) and exchange their ids (``(n, 1)``, cut
    by source).  Sets ``ep.max_copies`` from this micro batch's routing."""
    ep.max_copies = ep.group.world * expert_indices.size
    order, cuts, local_ids = ep._bucket(expert_indices)
    recv = ep.group.all_to_all(np.split(local_ids, cuts))
    ids = np.concatenate(recv)[:, None]
    ep.tokens_received = len(ids)
    recv_cuts = np.cumsum([len(r) for r in recv])[:-1]
    return order, order // expert_indices.shape[1], cuts, ids, recv_cuts


def _post_tokens(ep: "ExpertParallelDMoE", sent: np.ndarray, cuts) -> _Posted:
    send = np.split(sent, cuts)
    return _Posted(send, _post(ep, send))


# ----------------------------------------------------------------------
# The two token exchanges, on the tape.
# ----------------------------------------------------------------------
def _pad(rows: np.ndarray, plan) -> np.ndarray:
    """Arrival-ordered rows in ``plan``'s padded expert order, pad rows
    zero (``padded_gather``'s arithmetic)."""
    idx = plan.gather_indices
    out = rows.take(
        idx.clip(0), axis=0,
        out=arena.out_buf((len(idx),) + rows.shape[1:], rows.dtype, idx),
    )
    out[idx < 0] = 0.0
    return out


def _unpad(padded: np.ndarray, plan) -> np.ndarray:
    """:func:`_pad` undone: the live rows back in arrival order."""
    idx = plan.gather_indices
    live = idx >= 0
    out = np.empty((plan.num_tokens,) + padded.shape[1:], padded.dtype)
    out[idx[live]] = padded[live]
    return out


# Each reverse exchange is unconditional: an empty gradient — a rank with
# no tokens, or one that received none — still enters it, so no peer
# waits on a rank that skipped.  (The walk skips a node whose gradient is
# ``None``; every op between an exchange and the layer's output hands back
# an array, empty or not.)
class _Dispatch(Function):
    """Tokens to their experts: ``sent``'s rows, posted by destination,
    arrive by source and land in ``plan``'s padded expert order."""

    @staticmethod
    def forward(ctx, sent, ep, posted, plan, recv_cuts):
        with span("all_to_all", {"world": ep.group.world}):
            tokens = _complete(ep, posted.send, posted.pending)
        ctx.save_for_backward(ep, plan, recv_cuts)
        return _pad(tokens, plan)

    @staticmethod
    def backward(ctx, grad):
        ep, plan, recv_cuts = ctx.saved
        return (_exchange(ep, np.split(_unpad(grad, plan), recv_cuts)),)


class _Combine(Function):
    """The expert outputs home to their sources, where they arrive in
    destination order."""

    @staticmethod
    def forward(ctx, y, ep, plan, recv_cuts, send_cuts):
        ctx.save_for_backward(ep, plan, send_cuts)
        return _exchange(ep, np.split(_unpad(y, plan), recv_cuts))

    @staticmethod
    def backward(ctx, grad):
        ep, plan, send_cuts = ctx.saved
        return (_pad(_exchange(ep, np.split(grad, send_cuts)), plan),)


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
    ``tokens_received`` is the number of token copies the last micro
    batch computed on this shard; ``corrupt_detected`` counts non-finite
    payloads this rank received and ``retries`` the exchanges it
    re-issued; ``num_experts`` counts the shard's experts.
    """

    def __init__(
        self,
        layer: dMoE,
        group: ProcessGroup,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__()
        mine = DeviceMesh(group.world, group.world).expert_slice(
            group.rank, layer.num_experts
        )
        self.group = group
        self.retry_policy = retry_policy
        self.num_experts = len(mine)
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
        for p in (self.w1, self.b1, self.w2, self.b2):
            p.shard_group = group
        #: The most copies one micro batch can send here — every rank's
        #: — which the dispatch plans for (set from the routed batch).
        self.max_copies = 0
        self.last_plan = self.last_topology = self.last_routing = None
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
        dest = experts // self.num_experts
        order = np.argsort(dest, kind="stable")
        cuts = np.cumsum(np.bincount(dest, minlength=self.group.world))[:-1]
        return order, cuts, (experts % self.num_experts)[order].astype(np.int64)

    def forward(self, x: Tensor):
        """Apply the rank's share of the layer; returns ``(output,
        aux_loss)``.  ``x`` may be ``(tokens, hidden)`` or ``(batch,
        seq, hidden)``."""
        exchanges_with(self.group)
        shape = x.shape
        if x.ndim == 3:
            x = x.reshape((shape[0] * shape[1], shape[2]))
        local, f = self.num_experts, self.ffn_hidden_size

        # (1)-(2) Route; bucket the copies and exchange their ids.
        routing = self.router(x)
        order, rows, send_cuts, ids, recv_cuts = graph_host(
            _route, self, routing.expert_indices
        )

        # (3) Post the tokens, (4) plan while they are in flight, wait.
        sent = gather_rows(x, rows)
        posted = graph_host(_post_tokens, self, sent.data, send_cuts)
        plan, topology, row_expert = graph_host(_build_dispatch, self, ids)
        xp = _Dispatch.apply(sent, self, posted, plan, recv_cuts)

        # (5) Figure 6's expert MLP over this rank's shard, then home.
        y = expert_mlp(
            xp,
            self.w1,
            self.b1.reshape((local * f,)),
            self.w2.reshape((local * f, self.hidden_size)),
            self.b2,
            topology,
            row_expert,
            self.activation,
        )
        back = _Combine.apply(y, self, plan, recv_cuts, send_cuts)

        # (6) The weighted combine (the router weights apply at the source).
        weights = gather_rows(routing.expert_weights.reshape((-1, 1)), order)
        out = scatter_rows(back * weights, rows, len(x))
        if len(shape) == 3:
            out = out.reshape(shape)
        return out, routing.aux_loss
