"""One optimizer step, as a function of the state it is given.

:func:`run_step` is the paper's Megatron-LM step (§3): zero the
gradients, run the global batch's micro batches forward and backward
with gradient accumulation, decide whether the step may update, sync the
gradients, clip at ``grad_clip`` and take the Adam update at the
schedule's rate.  It reads and writes only a :class:`StepState` (model,
optimizer, schedule, :class:`~repro.training.config.TrainerConfig`, the
optional guard and fault injector, and the captured graph), so anything
that holds one — :class:`~repro.training.trainer.Trainer`, a test, a
rank — runs the same step.  The loop around it stays with the caller:
data order, guardrail bookkeeping (snapshots and rewind), routing stats,
telemetry, checkpoints and the data-parallel group.  A rank of a group
(data- or expert-parallel) passes ``sync``; its skips are the group's,
and its clip reads the group's global norm.

**Four ways to run a step.**  ``config.backend`` and
``config.steady_state`` select them, and nothing else does — not even
another thread's scope (:mod:`repro.autograd.execution`):

- ``"eager"``, not steady (the default): the reference.  Every micro
  batch traverses the modules and builds its tape; every array comes
  from NumPy.  Every other configuration must match it bit for bit.
- ``"eager"``, steady: the same code under
  :func:`repro.autograd.steady_state`, so the buffer arena recycles every
  fixed-shape activation and gradient array across steps
  (``docs/performance.md``); only where memory comes from differs.  This
  is what a graph is captured from.
- ``"replay"``: the first micro batch of each signature (shapes,
  dtypes, the training flag) runs eagerly under a
  :class:`~repro.autograd.graph.CaptureSession`; every matching micro
  batch after it replays the compiled schedule with no module traversal
  and no tape (``tape_nodes`` stays 0).  A changed signature, a guarded
  host divergence, a skipped step and a restored checkpoint drop the
  graph, and the next micro batch recaptures.
- ``"cc"``: replay with each captured graph lowered to C
  (``repro.autograd.lower``, ``docs/codegen.md``) and the fused native
  Adam and grad norm bound to the state's optimizer.  Without a C toolchain (or with
  ``REPRO_NO_CC=1``) it degrades to ``"replay"`` with one warning.

``"replay"`` and ``"cc"`` are always steady (``TrainerConfig`` sets it):
that is what a graph is captured from and what they are measured on.
The fused ops run on every rung.  A state owns its graph, so two states
never share one.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.autograd import stats as ag_stats
from repro.autograd import steady_state
from repro.autograd.execution import current
from repro.autograd.graph import CaptureSession, GraphInvalidated, StepGraph
from repro.nn.transformer import TransformerLM
from repro.observability.metrics import registry
from repro.observability.tracing import span
from repro.resilience import guardrails as gr
from repro.resilience.faults import CollectiveFault, FaultInjector
from repro.resilience.guardrails import NumericGuard
from repro.training.config import TrainerConfig
from repro.training.lr_schedule import LRSchedule
from repro.training.optim import Adam, Optimizer, clip_scale
from repro.utils.logging import get_logger

logger = get_logger("training")


@dataclass(eq=False)
class StepState:
    """Everything one step reads and writes."""

    model: TransformerLM
    optimizer: Optimizer
    schedule: LRSchedule
    config: TrainerConfig
    #: Loss sentinel and spike detector (``config.guardrails``); the
    #: step reads its verdicts, the caller keeps its books.
    guard: Optional[NumericGuard] = None
    #: Seeded gradient faults, delivered after backward.
    faults: Optional[FaultInjector] = None
    #: Compiled step graph (replay/cc), or None before the first capture
    #: and after an invalidation.  ``graph.signature`` is its key.
    graph: Optional[StepGraph] = None

    def __post_init__(self) -> None:
        #: What every step and evaluation runs inside, as
        #: ``config.steady_state`` chooses.  Entering it yields the buffer
        #: arena, or ``None`` on the reference rung.
        self.scope = (
            steady_state if self.config.steady_state else contextlib.nullcontext
        )
        if self.config.backend == "cc" and isinstance(self.optimizer, Adam):
            # Fused native optimizer step + grad norm, bound to this
            # state's optimizer alone (bit-identical mirrors; no-ops
            # without a C toolchain).
            from repro.autograd import lower

            lower.attach_adam(self.optimizer)

    def invalidate_graph(self) -> None:
        """Discard the compiled step graph; the next micro batch runs
        eagerly and recaptures.  Called on guardrail skips/rewinds and
        checkpoint restores — cheap insurance that replay never runs
        against state transitions the schedule did not see."""
        self.graph = None


def run_step(
    state: StepState,
    batches: Iterator,
    step: int,
    sync: Optional[Callable[[], None]] = None,
) -> Tuple[float, Optional[float], str]:
    """One optimizer step over ``config.accumulation_steps`` micro batches.

    ``batches`` is an iterator the step draws its micro batches from,
    one at a time, so a caller's data order interleaves with the step
    exactly as it would inline.  ``sync`` is the data-parallel gradient
    all-reduce (:func:`sync_gradients` bound to a group), entered
    whatever this rank's verdict; a single process passes none.  Returns ``(mean_loss, grad_norm, verdict)``:
    the pre-clip global norm is ``None`` when the step was skipped, and
    a skipped step leaves no gradients and no graph behind.
    """
    cfg, optimizer, faults = state.config, state.optimizer, state.faults
    ag_stats.reset()
    with state.scope() as pool:
        if pool is not None:
            # Everything the previous step allocated from the arena
            # (activations, tape intermediates, leaf gradients — the
            # memory plan's gradient region among them) is dead once
            # zero_grad runs below, so retire the whole generation first.
            with span("arena_retire"):
                pool.next_generation()
        if faults is not None:
            faults.current_step = step
        with span("zero_grad"):
            optimizer.zero_grad()
        total = 0.0
        for acc_i in range(cfg.accumulation_steps):
            with span("data"):
                batch = next(batches)
            if cfg.backend != "eager":
                # Slot 0 (first micro batch: leaf-grad buffers are
                # acquired) and slot 1 (accumulation micro batches:
                # grads accumulate in place) ask for different buffers,
                # so each has its own layout in the graph's memory plan.
                total += micro_batch_captured(state, batch, 1 if acc_i else 0)
            else:
                lm, _ = _forward_backward(state, batch)
                total += float(lm.data)
        mean_loss = total / cfg.accumulation_steps

        if faults is not None:
            faults.corrupt_gradients(step, optimizer.params)

        # The loss sentinel and spike detector read this rank's loss.
        verdict = gr.OK if state.guard is None else state.guard.check_loss(mean_loss)
        if sync is not None:
            # A rank enters the exchange whatever its verdict: the skip is
            # the group's.  A rank that would skip sends a NaN, so every
            # rank's global norm below reads non-finite and all skip.
            if verdict != gr.OK:
                grads = (p.grad for p in optimizer.params if p.grad is not None)
                next(grads).flat[0] = np.nan
            with span("grad_sync"):
                try:
                    sync()
                except CollectiveFault as exc:
                    logger.warning("step %d: unrecovered %s", step, exc)
                    verdict = gr.COLLECTIVE_FAULT
        if verdict == gr.OK or (sync is not None and verdict != gr.COLLECTIVE_FAULT):
            with span("clip"):
                # One read of every gradient decides both the skip and
                # the clip: an fp64 sum of squares of finite fp32 values
                # cannot overflow, and NaN / ±inf propagate through it,
                # so the norm is finite exactly when every element is.
                # The clip scale rides into the optimizer's own sweep
                # instead of a pass of its own (docs/training.md).  Every
                # rank of a group takes it: expert shards sum theirs
                # over the group.
                norm = optimizer.grad_norm()
            if verdict == gr.OK and not np.isfinite(norm):
                verdict = gr.NONFINITE_GRAD

        if verdict == gr.OK:
            scale = clip_scale(norm, cfg.grad_clip)
            reg = registry()
            reg.gauge("training/grad_norm").set(norm)
            reg.gauge("training/clip_scale").set(scale)
            with span("optimizer"):
                optimizer.step(lr=state.schedule(step), grad_scale=scale)
            return mean_loss, norm, verdict
        _drop_gradients(state)
        # A skipped step (and a potential rewind after it) transitions
        # optimizer state outside the captured schedule's assumptions —
        # drop the graph and recapture next step.
        state.invalidate_graph()
        return mean_loss, None, verdict


# ----------------------------------------------------------------------
# Micro-batch execution: eager, captured, or replayed.
# ----------------------------------------------------------------------
def _forward_backward(state: StepState, batch, retain_graph: bool = False):
    """One forward/backward on ``batch`` through the modules — every
    eager micro batch, and the source of every capture.  Returns
    ``(lm, scaled)``: the LM loss tensor and the walk's root."""
    with span("forward"):
        loss, lm, _ = state.model.loss(batch.inputs, batch.targets)
        # Scale so accumulated gradients average over micro batches.
        scaled = loss * (1.0 / state.config.accumulation_steps)
    with span("backward"):
        scaled.backward(retain_graph=retain_graph)
    return lm, scaled


def _graph_signature(state: StepState, batch) -> tuple:
    """Replay validity key: anything the compiled schedule froze that
    is not re-derived per replay.  Shapes/dtypes pin the buffer and
    broadcast metadata, and the training flag pins dropout presence.
    The topology cache key is deliberately *not* part of it: topology
    and permutation plans rebuild as host records each replay, so
    tokens-per-expert wobble replays fine.
    """
    return (
        batch.inputs.shape,
        str(batch.inputs.dtype),
        batch.targets.shape,
        str(batch.targets.dtype),
        bool(state.model.training),
    )


def micro_batch_captured(state: StepState, batch, slot: int = 0) -> float:
    """One micro batch on a compiled rung: replay ``state.graph`` when
    its signature matches, else drop it and capture a fresh one."""
    sig = _graph_signature(state, batch)
    g = state.graph
    if g is not None:
        if g.signature == sig:
            try:
                with span("replay"):
                    return g.replay(
                        {"inputs": batch.inputs, "targets": batch.targets},
                        slot=slot,
                    )
            except GraphInvalidated as exc:
                # RNG streams were restored by replay(); the eager
                # recapture below consumes the identical draws.
                logger.info("step graph invalidated (%s); recapturing", exc)
        else:
            logger.info(
                "step graph signature changed %s -> %s; recapturing",
                g.signature,
                sig,
            )
        registry().counter("graph_fallbacks").inc()
        state.graph = None
    return _capture_micro_batch(state, batch, sig)


def _capture_micro_batch(state: StepState, batch, sig: tuple) -> float:
    """Eager micro batch recorded into a fresh :class:`StepGraph`."""
    session = CaptureSession(
        sig, {"inputs": batch.inputs, "targets": batch.targets}
    ).begin()
    try:
        # retain_graph: finalize() compiles the backward schedule
        # from the still-intact tape right after this walk.
        lm, scaled = _forward_backward(state, batch, retain_graph=True)
    except BaseException:
        session.abort()
        raise
    state.graph = session.finalize(lm, scaled)
    loss = float(lm.data)
    pool = current().arena
    if pool is not None:
        # The capture's buffers are dead but for its leaf gradients:
        # the first replay records its layout on their memory.
        pool.retire([p.grad for p in state.optimizer.params])
    if state.config.backend == "cc":
        # Lower the fresh capture to native code.  Declines cleanly
        # (counter + one warning) without a toolchain; recaptures
        # after invalidation re-lower onto the loaded prelude and
        # compile nothing.
        from repro.autograd import lower

        lower.attach(state.graph)
    return loss


# ----------------------------------------------------------------------
# Gradients: the data-parallel sync, and the drop a skipped step takes.
# ----------------------------------------------------------------------
def sync_gradients(state: StepState, group, log=None) -> None:
    """Data-parallel gradient all-reduce: the mean over ``group``'s
    ranks, once per step, over one bucket of every replicated gradient.
    An expert shard's gradient (``p.shard_group``: each rank holds
    different experts) stays off the exchange and is scaled to the same
    mean in place.

    ``group`` is any group — a ``run_distributed`` rank, or the trainer's
    echo group (:func:`repro.distributed.backend.open_echo_group`) — and
    the exchange is its ``all_reduce_bucket``: each ``p.grad`` scaled by
    ``1 / group.world`` crosses the transport, and the total is written
    back into the same ``p.grad`` arrays in place (a fault leaves them
    all untouched).  The echo group's peers hold this process's own
    gradients, so there alone the exchange is an exact identity — since
    ``dp_world`` is a power of two — that exercises the real collective;
    ranks hold their own shards' gradients and end with their average.
    The bucket is laid out from every parameter, in the optimizer's
    order: one a rank left no gradient (its router fell back) sends
    zeros, so every rank's bucket lines up.  ``"sim"`` and ``"mp"``
    reduce in the same rank order, so the two are bit-identical, but
    kills and timeouts are real under ``"mp"``.  The injector's collective faults
    fire inside the group's exchange; its retry policy, when set,
    re-runs the exchange on a healed group.  ``log`` (a ``CommLog``)
    records the exchange.
    """
    injector = state.faults
    params = state.optimizer.params
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
    grads = [p.grad for p in params if p.shard_group is None]
    step = injector.current_step if injector else None

    def attempt(k: int) -> None:
        if k:
            group.heal()
        group.all_reduce_bucket(grads, 1.0 / group.world, log, step)

    try:
        if injector is None or injector.policy is None:
            attempt(0)
        else:
            injector.policy.run(attempt)
    except CollectiveFault:
        # Respawn dead workers before the step is skipped so the
        # next step finds a healthy group.
        group.heal()
        raise
    for p in params:
        if p.shard_group is not None:
            np.multiply(p.grad, 1.0 / group.world, out=p.grad)


def _drop_gradients(state: StepState) -> None:
    for p in state.optimizer.params:
        p.grad = None
