"""Training loop with gradient accumulation, guardrails, and resume.

Mirrors the Megatron-LM recipe the paper uses (§3): Adam, gradient
clipping at 1.0, warmup + decay schedule, a global batch split into micro
batches with gradient accumulation, and periodic validation.  MoE models
additionally log routing balance statistics (dynamic capacity factor,
drop fraction) that feed the performance model.

On top of the recipe sits the fault-tolerance layer (``docs/robustness.md``):

- **non-finite skip** — the step's one read of every gradient, the
  global norm the clip needs, also decides the skip: a non-finite norm
  means some gradient element is NaN or ±inf, and the update is skipped
  (with or without guardrails) instead of poisoning Adam;
- **numeric guardrails** (:class:`repro.resilience.NumericGuard`) — a
  NaN/Inf loss sentinel and a rolling-median loss-spike detector; bad
  steps skip the update, and after K consecutive bad steps the trainer
  rewinds to its last known-good in-memory snapshot;
- **fault injection** (:class:`repro.resilience.FaultInjector`) — seeded
  schedules corrupt gradients and fail collectives so every recovery path
  above is exercised by tests, not trusted on faith;
- **validated resume** — :meth:`Trainer.save` / :meth:`Trainer.fit`
  round-trip model, optimizer, data-order, and RNG state bit-exactly
  through the checksummed checkpoint format.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.autograd import no_grad, steady_state
from repro.autograd import stats as ag_stats
from repro.autograd.graph import CaptureSession, GraphInvalidated, StepGraph
from repro.observability.metrics import registry
from repro.observability.tracing import get_tracer, span
from repro.autograd.tensor import Tensor
from repro.data.dataset import LMDataset
from repro.moe.capacity import min_capacity_factor
from repro.nn.transformer import TransformerLM
from repro.resilience import guardrails as gr
from repro.resilience.faults import CollectiveFault, FaultInjector
from repro.resilience.guardrails import GuardrailConfig, NumericGuard
from repro.checkpoint import (
    AsyncCheckpointWriter,
    CheckpointError,
    CheckpointManager,
    CheckpointState,
    ShardReader,
    build_state,
    load_checkpoint,
    write_state,
)
from repro.training.lr_schedule import ConstantLR, LRSchedule
from repro.training.metrics import History, TrainingRecord
from repro.training.optim import Adam, Optimizer, clip_scale, grad_norm
from repro.utils.logging import get_logger
from repro.utils.rng import (
    RngLike,
    get_global_state,
    get_rng,
    set_global_state,
)

logger = get_logger("training")


@dataclass
class RoutingStats:
    """Per-step routing balance summary across all MoE layers."""

    step: int
    max_dynamic_capacity_factor: float
    mean_dynamic_capacity_factor: float


@dataclass
class TrainerConfig:
    """Knobs for :class:`Trainer`.

    Attributes:
        global_batch: sequences per optimizer step.
        micro_batch: sequences per forward/backward (gradient
            accumulation runs ``global_batch / micro_batch`` times).
        max_steps: optimizer steps to run.
        grad_clip: global-norm clip (1.0 per Shoeybi et al., 2019).
        eval_every / eval_batches: validation cadence and size.
        log_every: training-loss logging cadence.
        guardrails: numeric-guardrail thresholds; ``None`` disables the
            loss sentinel / spike detector / rewind path entirely.  A
            step whose gradients are not finite is skipped either way:
            its global norm, which the clip reads anyway, is not finite.
        dp_world: when > 1, the step's gradients, scaled by
            ``1 / dp_world``, go through one data-parallel ``all_reduce``
            per step (one bucket holding every gradient, reduced back
            into the ``p.grad`` arrays in place), exposing the step to
            injected collective faults and comm accounting.
            Must be a power of two: every rank holds the same gradient
            here, and only then is scaling by ``1/world`` and summing
            ``world`` copies exact in floating point — any other world
            would silently perturb the trajectory, so it is rejected.
        dist_backend: transport for the data-parallel all-reduce —
            ``"sim"`` (default) keeps the in-process reference
            collective; ``"mp"`` moves the bucket through
            ``dp_world - 1`` persistent forked echo workers over
            shared-memory windows that stay mapped for the group's
            lifetime (``repro.distributed.backend.open_echo_group``;
            the workers are forked at the top of the first step).
            Both reduce with the identical
            rank-ordered formula, so training trajectories are
            bit-identical across backends, and so is every injected
            collective fault: a ``rank_failure`` kills a peer (under
            ``"mp"`` a real SIGKILL), the step is skipped or the sync
            retried, and the group heals (respawns) before the next
            attempt (see ``docs/distributed.md``).
        steady_state: run the step under
            :func:`repro.autograd.steady_state` — the buffer arena
            recycles every fixed-shape activation/gradient array across
            steps and the fused elementwise ops collapse
            bias/activation/dropout/residual chains into single tape
            nodes (see ``docs/performance.md``).  A choice only for
            ``backend="eager"``: off is the allocating, unfused
            reference every other configuration must match bit for bit,
            on is the eager steady step.  The compiled rungs are always
            steady — ``"replay"`` and ``"cc"`` set it, whatever was
            passed — because that is what a graph is captured from and
            the only configuration they are measured on.
        backend: step execution backend — with ``steady_state`` the
            only selector of how a micro batch runs, four
            configurations in all.  ``"eager"`` (default) traverses the
            modules and builds the tape every time.  ``"replay"``
            captures step graphs — the first micro batch is executed
            eagerly under a :class:`repro.autograd.graph.CaptureSession`
            and every signature-matching micro batch after it replays
            the compiled schedule with no module traversal or tape
            construction (``tape_nodes`` stays 0 on replayed steps);
            signature changes, guarded host divergences, guardrail
            skips/rewinds, and checkpoint restores fall back to eager
            and recapture transparently (see ``docs/performance.md``).
            ``"cc"`` is replay plus native-code lowering: each captured
            graph is compiled to C via ``repro.autograd.lower`` and the
            fused Adam/clip kernels are installed (see
            ``docs/codegen.md``).  Every backend is bit-identical; a
            missing C toolchain (or ``REPRO_NO_CC=1``) degrades
            ``"cc"`` to ``"replay"`` with a single warning.
        async_checkpoint: write periodic checkpoints through the
            background :class:`repro.checkpoint.AsyncCheckpointWriter`:
            the step boundary pays only a snapshot memcpy, and the
            serialize+fsync runs on a worker thread.  Byte-identical to
            synchronous checkpoints (see ``docs/robustness.md``).
        ckpt_queue_size: bounded async-writer queue depth (pending
            snapshots before :meth:`submit` applies backpressure).
    """

    global_batch: int = 32
    micro_batch: int = 8
    max_steps: int = 100
    grad_clip: float = 1.0
    eval_every: int = 20
    eval_batches: int = 4
    log_every: int = 10
    guardrails: Optional[GuardrailConfig] = None
    dp_world: int = 0
    dist_backend: str = "sim"
    steady_state: bool = False
    backend: str = "eager"
    async_checkpoint: bool = False
    ckpt_queue_size: int = 2

    def __post_init__(self) -> None:
        if self.global_batch % self.micro_batch:
            raise ValueError(
                f"global_batch={self.global_batch} must be divisible by "
                f"micro_batch={self.micro_batch}"
            )
        if self.dp_world < 0 or self.dp_world & (self.dp_world - 1):
            raise ValueError(
                f"dp_world must be 0 or a power of two, got {self.dp_world}: "
                "the replicated-gradient all-reduce is exact only for "
                "power-of-two worlds; any other would silently perturb "
                "the training trajectory"
            )
        if self.dist_backend not in ("sim", "mp"):
            raise ValueError(
                f"unknown dist_backend {self.dist_backend!r}: "
                "expected 'sim' or 'mp'"
            )
        if self.backend not in ("eager", "replay", "cc"):
            raise ValueError(
                f"unknown backend {self.backend!r}: "
                "expected 'eager', 'replay', or 'cc'"
            )
        if self.backend != "eager":
            self.steady_state = True

    @property
    def accumulation_steps(self) -> int:
        return self.global_batch // self.micro_batch


class Trainer:
    """Drives one model over one dataset; records a :class:`History`."""

    def __init__(
        self,
        model: TransformerLM,
        train_data: LMDataset,
        val_data: Optional[LMDataset] = None,
        config: Optional[TrainerConfig] = None,
        optimizer: Optional[Optimizer] = None,
        schedule: Optional[LRSchedule] = None,
        rng: RngLike = None,
        fault_injector: Optional[FaultInjector] = None,
        mesh: Optional[Any] = None,
    ) -> None:
        self.model = model
        self.train_data = train_data
        self.val_data = val_data
        if config is None:
            config = TrainerConfig()
        self.config = config
        self.optimizer = optimizer or Adam(model.parameters(), lr=6e-4)
        self.schedule = schedule or ConstantLR(self.optimizer.lr)
        self.rng = get_rng(rng)
        self.history = History()
        self.routing_stats: List[RoutingStats] = []
        self._epoch_order: Optional[np.ndarray] = None
        self._epoch_pos = 0
        self.skipped_steps = 0
        self.guard = (
            NumericGuard(config.guardrails) if config.guardrails else None
        )
        self.fault_injector = fault_injector
        #: Device mesh recorded into checkpoints; drives elastic resume
        #: (expert-weight resharding) when the saved mesh differs.
        self.mesh = mesh
        #: Lazily created background writer (``async_checkpoint=True``).
        self.ckpt_writer: Optional[AsyncCheckpointWriter] = None
        self._snapshot = None
        self._good_since_snapshot = 0
        #: Compiled step graph (replay/cc backends), or None before the
        #: first capture / after an invalidation.
        self.step_graph: Optional[StepGraph] = None
        #: Wall-clock seconds of the most recent train_step (always
        #: measured) and its per-phase breakdown (tracer-only).
        self.last_step_time: Optional[float] = None
        self.last_phase_times: Optional[Dict[str, float]] = None
        #: Pre-clip global gradient norm of the most recent train_step
        #: (None when the step was skipped).
        self.last_grad_norm: Optional[float] = None
        from repro.distributed.collectives import CommLog

        self.comm_log = CommLog() if config.dp_world > 1 else None
        #: The data-parallel group this process is rank 0 of (opened at
        #: the top of the first step, closed by close_dist / end of _run).
        self._echo_group = None
        #: What every step and evaluation runs inside — the one read of
        #: ``config.steady_state``.  Entering it yields the buffer arena,
        #: or ``None`` on the reference rung.
        self._scope = steady_state if config.steady_state else contextlib.nullcontext
        #: Arena hit rate when the most recent train_step ended (``None``
        #: on the reference rung).
        self.last_arena_hit_rate: Optional[float] = None
        if config.backend == "cc" and isinstance(self.optimizer, Adam):
            # Fused native optimizer step + grad-norm clip (bit-identical
            # mirrors; no-ops without a C toolchain).
            from repro.autograd import lower

            lower.attach_adam(self.optimizer)

    # ------------------------------------------------------------------
    def _next_batch(self, batch_size: int):
        """Epoch-shuffled batches with explicit, checkpointable state.

        Equivalent to ``train_data.iter_batches(shuffle=True,
        drop_last=True)`` driven by ``self.rng`` — but the epoch order
        and position are plain attributes, so :meth:`save` can persist
        them and a resumed run consumes the identical batch sequence.
        """
        n = len(self.train_data)
        stop = n - (n % batch_size)
        if self._epoch_order is None or self._epoch_pos >= stop:
            order = np.arange(n)
            self.rng.shuffle(order)
            self._epoch_order = order
            self._epoch_pos = 0
        indices = self._epoch_order[self._epoch_pos : self._epoch_pos + batch_size]
        self._epoch_pos += batch_size
        return self.train_data.batch(indices)

    def _collect_routing_stats(self, step: int) -> None:
        factors = []
        for module in self.model.modules():
            routing = getattr(module, "last_routing", None)
            num_experts = getattr(module, "num_experts", None)
            if routing is None or num_experts is None:
                continue
            factors.append(
                min_capacity_factor(
                    routing.expert_indices, num_experts, routing.expert_indices.shape[1]
                )
            )
        if factors:
            self.routing_stats.append(
                RoutingStats(
                    step=step,
                    max_dynamic_capacity_factor=float(np.max(factors)),
                    mean_dynamic_capacity_factor=float(np.mean(factors)),
                )
            )

    # ------------------------------------------------------------------
    # Known-good snapshots (skip-and-rewind substrate).
    # ------------------------------------------------------------------
    def _capture_snapshot(self) -> None:
        snap = {"params": [p.data.copy() for p in self.optimizer.params]}
        if isinstance(self.optimizer, Adam):
            snap["adam"] = (
                self.optimizer.t,
                [m.copy() for m in self.optimizer._m],
                [v.copy() for v in self.optimizer._v],
            )
        self._snapshot = snap
        self._good_since_snapshot = 0

    def _restore_snapshot(self) -> None:
        snap = self._snapshot
        for p, saved in zip(self.optimizer.params, snap["params"]):
            p.data[...] = saved
            p.grad = None
        if "adam" in snap:
            t, ms, vs = snap["adam"]
            self.optimizer.t = t
            for m, saved in zip(self.optimizer._m, ms):
                m[...] = saved
            for v, saved in zip(self.optimizer._v, vs):
                v[...] = saved

    # ------------------------------------------------------------------
    def _dist_group(self):
        """The data-parallel group this process is rank 0 of, opened on
        first use (:func:`repro.distributed.backend.open_echo_group`)."""
        if self._echo_group is None:
            from repro.distributed.backend import open_echo_group

            injector = self.fault_injector
            self._echo_group = open_echo_group(
                self.config.dp_world, self.config.dist_backend, op_timeout_s=5.0,
                schedule=injector.schedule if injector else None,
            )
        return self._echo_group

    def _sync_gradients(self) -> None:
        """Data-parallel gradient all-reduce: an exact identity, since
        ``dp_world`` is a power of two, that exercises the real
        collective — once per step, over one bucket of every gradient.

        This process is rank 0 of a group whose peers hold the same
        gradients: the bucket that crosses the transport is each
        ``p.grad`` scaled by ``1 / dp_world``, and the total is written
        back into the same ``p.grad`` arrays in place (a fault leaves
        them all untouched).  ``"sim"`` reduces through the in-process
        reference, ``"mp"`` through persistent forked workers and
        shared-memory windows mapped once — same rank-ordered
        reduction, so the two are bit-identical, but kills and timeouts
        are real under ``"mp"``.  The injector's collective faults fire
        inside the group's exchange; its retry policy, when set, re-runs
        the exchange on a healed group.
        """
        cfg, injector = self.config, self.fault_injector
        group = self._dist_group()
        grads = [p.grad for p in self.optimizer.params if p.grad is not None]
        step = injector.current_step if injector else None

        def attempt(k: int) -> None:
            if k:
                group.heal()
            group.all_reduce(grads, 1.0 / cfg.dp_world, self.comm_log, step)

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

    def close_dist(self) -> None:
        """Close the data-parallel group (under "mp": its forked workers)."""
        if self._echo_group is not None:
            self._echo_group.close()
            self._echo_group = None

    def _drop_gradients(self) -> None:
        for p in self.optimizer.params:
            p.grad = None

    # ------------------------------------------------------------------
    def evaluate(self) -> Optional[float]:
        """Mean validation LM loss over ``eval_batches`` fixed batches."""
        if self.val_data is None:
            return None
        # Eval reuses pooled buffers too; they stay live until the next
        # train step retires the generation.
        with self._scope(), span("eval"):
            return self._evaluate_batches()

    def _evaluate_batches(self) -> Optional[float]:
        self.model.eval()
        losses = []
        with no_grad():
            for i, batch in enumerate(
                self.val_data.iter_batches(
                    self.config.micro_batch, shuffle=False, drop_last=False
                )
            ):
                if i >= self.config.eval_batches:
                    break
                _, lm, _ = self.model.loss(batch.inputs, batch.targets)
                losses.append(float(lm.data))
        self.model.train()
        return float(np.mean(losses)) if losses else None

    def train_step(self, step: int) -> float:
        """One optimizer step (with gradient accumulation and guardrails)."""
        ag_stats.reset()
        t0 = time.perf_counter()
        with span("step", {"step": step}), self._scope() as pool:
            if pool is not None:
                # Everything the previous step allocated from the arena
                # (activations, tape intermediates, leaf gradients) is
                # dead once zero_grad runs below, so retire the whole
                # generation back to the free pool first.
                with span("arena_retire"):
                    pool.next_generation()
            loss = self._train_step_impl(step)
            self.last_arena_hit_rate = pool.hit_rate() if pool is not None else None
        self.last_step_time = time.perf_counter() - t0
        tracer = get_tracer()
        if tracer is not None:
            root = tracer.last_root("step")
            self.last_phase_times = (
                tracer.breakdown(root) if root is not None else None
            )
            tracer.sample("tape_nodes", ag_stats.tape_nodes)
            if self.last_arena_hit_rate is not None:
                tracer.sample("arena_hit_rate", self.last_arena_hit_rate)
            reg = registry()
            reg.histogram("trainer/step_time").observe(self.last_step_time)
            if self.last_phase_times:
                for phase, seconds in self.last_phase_times.items():
                    reg.histogram(f"trainer/phase/{phase}").observe(seconds)
        else:
            self.last_phase_times = None
        return loss

    # ------------------------------------------------------------------
    # Micro-batch execution: eager, captured, or replayed.
    # ------------------------------------------------------------------
    def _forward_backward(self, batch, retain_graph: bool = False):
        """One forward/backward on ``batch`` through the modules — every
        eager micro batch, and the source of every capture.  Returns
        ``(lm, scaled)``: the LM loss tensor and the walk's root."""
        with span("forward"):
            loss, lm, _ = self.model.loss(batch.inputs, batch.targets)
            # Scale so accumulated gradients average over micro batches.
            scaled = loss * (1.0 / self.config.accumulation_steps)
        with span("backward"):
            scaled.backward(retain_graph=retain_graph)
        return lm, scaled

    def _graph_signature(self, batch) -> tuple:
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
            bool(self.model.training),
        )

    def invalidate_graph(self) -> None:
        """Discard the compiled step graph; the next micro batch runs
        eagerly and recaptures.  Called on guardrail skips/rewinds and
        checkpoint restores — cheap insurance that replay never runs
        against state transitions the schedule did not see."""
        self.step_graph = None

    def _micro_batch_captured(self, batch, slot: int = 0) -> float:
        sig = self._graph_signature(batch)
        g = self.step_graph
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
            self.step_graph = None
        return self._capture_micro_batch(batch, sig)

    def _capture_micro_batch(self, batch, sig: tuple) -> float:
        """Eager micro batch recorded into a fresh :class:`StepGraph`."""
        session = CaptureSession(
            sig, {"inputs": batch.inputs, "targets": batch.targets}
        ).begin()
        try:
            # retain_graph: finalize() compiles the backward schedule
            # from the still-intact tape right after this walk.
            lm, scaled = self._forward_backward(batch, retain_graph=True)
        except BaseException:
            session.abort()
            raise
        self.step_graph = session.finalize(lm, scaled)
        if self.config.backend == "cc":
            # Lower the fresh capture to native code.  Declines cleanly
            # (counter + one warning) without a toolchain; recaptures
            # after invalidation re-lower onto the loaded prelude and
            # compile nothing.
            from repro.autograd import lower

            lower.attach(self.step_graph)
        return float(lm.data)

    def _train_step_impl(self, step: int) -> float:
        cfg = self.config
        if self.fault_injector is not None:
            self.fault_injector.current_step = step
        if cfg.dp_world > 1:
            # Fork the "mp" peers before the step grows the heap: a
            # worker's memory high-water mark starts at what it inherits.
            self._dist_group()
        with span("zero_grad"):
            self.optimizer.zero_grad()
        total = 0.0
        for acc_i in range(cfg.accumulation_steps):
            with span("data"):
                batch = self._next_batch(cfg.micro_batch)
            if cfg.backend != "eager":
                # Slot 0 (first micro batch: leaf-grad buffers are
                # acquired) and slot 1 (accumulation micro batches:
                # grads accumulate in place) have different static
                # buffer plans.
                total += self._micro_batch_captured(batch, 1 if acc_i else 0)
            else:
                lm, _ = self._forward_backward(batch)
                total += float(lm.data)
        mean_loss = total / cfg.accumulation_steps

        if self.fault_injector is not None:
            self.fault_injector.corrupt_gradients(step, self.optimizer.params)

        verdict = gr.OK
        if self.guard is not None and not np.isfinite(mean_loss):
            verdict = gr.NONFINITE_LOSS
        if verdict == gr.OK and cfg.dp_world > 1:
            with span("grad_sync"):
                try:
                    self._sync_gradients()
                except CollectiveFault as exc:
                    logger.warning("step %d: unrecovered %s", step, exc)
                    verdict = gr.COLLECTIVE_FAULT
        if verdict == gr.OK:
            with span("clip"):
                # One read of every gradient decides both the skip and
                # the clip: an fp64 sum of squares of finite fp32 values
                # cannot overflow, and NaN / ±inf propagate through it,
                # so the norm is finite exactly when every element is.
                # The clip scale rides into the optimizer's own sweep
                # instead of a pass of its own (docs/training.md).
                norm = grad_norm(self.optimizer.params)
            if not np.isfinite(norm):
                verdict = gr.NONFINITE_GRAD
            elif self.guard is not None and self.guard.spike_detector.is_spike(
                mean_loss
            ):
                verdict = gr.LOSS_SPIKE

        self.last_grad_norm = None
        if verdict == gr.OK:
            scale = clip_scale(norm, cfg.grad_clip)
            self.last_grad_norm = norm
            reg = registry()
            reg.gauge("training/grad_norm").set(norm)
            reg.gauge("training/clip_scale").set(scale)
            with span("optimizer"):
                self.optimizer.step(lr=self.schedule(step), grad_scale=scale)
            if self.guard is not None:
                self.guard.record_good(mean_loss)
                self._good_since_snapshot += 1
                if (
                    self.guard.config.rewind
                    and self._good_since_snapshot >= self.guard.config.snapshot_every
                ):
                    # Only a rewind ever reads a snapshot.
                    with span("snapshot"):
                        self._capture_snapshot()
        else:
            self.skipped_steps += 1
            self._drop_gradients()
            # A skipped step (and a potential rewind below) transitions
            # optimizer state outside the captured schedule's
            # assumptions — drop the graph and recapture next step.
            self.invalidate_graph()
            if self.guard is None:
                logger.warning("step %d skipped (%s)", step, verdict)
            else:
                rewind_due = self.guard.record_bad(verdict)
                logger.warning(
                    "step %d skipped (%s), bad streak %d",
                    step,
                    verdict,
                    self.guard.bad_streak,
                )
                if rewind_due and self._snapshot is not None:
                    logger.warning(
                        "step %d: rewinding to last known-good state", step
                    )
                    with span("snapshot"):
                        self._restore_snapshot()
                    self.guard.record_rewind()
        with span("routing"):
            self._collect_routing_stats(step)
        return mean_loss

    # ------------------------------------------------------------------
    # Checkpoint round-trip (see docs/robustness.md).
    # ------------------------------------------------------------------
    def _ckpt_fault_hook(self):
        """Chaos seam: the injector's TORN_WRITE hook, when armed."""
        if self.fault_injector is None:
            return None
        return self.fault_injector.checkpoint_fault

    def _build_save_state(
        self,
        step: int = 0,
        val_loss: Optional[float] = None,
        extra: Optional[dict] = None,
        copy: bool = False,
    ) -> CheckpointState:
        """Capture the full resumable state as a :class:`CheckpointState`.

        Both save paths funnel through here: the synchronous
        :meth:`save` serializes it immediately (``copy=False`` — the
        arrays are read before anything can mutate them), while the
        async path snapshots with ``copy=True`` so later steps and
        guardrail rewinds cannot race the background write.
        """
        trainer_state = {
            "rng": {
                "bit_generator": type(self.rng.bit_generator).__name__,
                "state": self.rng.bit_generator.state,
            },
            "global_rng": get_global_state(),
            "epoch_pos": int(self._epoch_pos),
            "skipped_steps": int(self.skipped_steps),
            "schedule": type(self.schedule).__name__,
        }
        merged = dict(extra or {})
        if val_loss is not None:
            merged.setdefault("val_loss", float(val_loss))
        merged["trainer_state"] = trainer_state
        extra_arrays = {}
        if self._epoch_order is not None:
            extra_arrays["epoch_order"] = self._epoch_order
        return build_state(
            self.model,
            self.optimizer,
            step=step,
            extra=merged,
            extra_arrays=extra_arrays,
            mesh=self.mesh,
            copy=copy,
        )

    def save(
        self,
        path: str,
        step: int = 0,
        val_loss: Optional[float] = None,
        extra: Optional[dict] = None,
    ) -> None:
        """Checkpoint model + optimizer + full trainer state.

        ``step`` is the number of completed optimizer steps (the resumed
        run starts there).  Captures the trainer's and the process-global
        RNG streams and the epoch shuffle order/position, so
        :meth:`fit(resume=...)` is bit-exact.  ``path`` is the sharded
        checkpoint directory to create.
        """
        state = self._build_save_state(step=step, val_loss=val_loss, extra=extra)
        write_state(path, state, fault_hook=self._ckpt_fault_hook())

    def restore(self, path: str) -> int:
        """Restore a :meth:`save` checkpoint; returns the next step index.

        The trainer state is read from the manifest and validated before
        anything is loaded: a rejected checkpoint leaves the model and
        the optimizer as they were.
        """
        state = ShardReader(path).meta.get("extra", {}).get("trainer_state")
        if state is None:
            raise CheckpointError(
                f"checkpoint {path!r} holds no trainer state (written by "
                f"save_checkpoint directly?); cannot resume bit-exactly"
            )
        expected = type(self.rng.bit_generator).__name__
        if state["rng"]["bit_generator"] != expected:
            raise CheckpointError(
                f"checkpoint RNG is {state['rng']['bit_generator']!r}, "
                f"trainer uses {expected!r}"
            )
        if state.get("use_grad_scaler"):
            raise CheckpointError(
                f"checkpoint {path!r} was written with the fp16 loss scaler "
                "on; the scaler has been removed, so this run cannot be "
                "continued bit-exactly"
            )
        meta = load_checkpoint(path, self.model, self.optimizer, mesh=self.mesh)
        if meta.get("reshard"):
            logger.info(
                "elastic resume from %s: %s", path, meta["reshard"]
            )
        # Global stream first: if self.rng *is* the global generator the
        # second assignment overwrites it with the identical state.
        set_global_state(state["global_rng"])
        self.rng.bit_generator.state = state["rng"]["state"]
        order = meta["extra_arrays"].get("epoch_order")
        self._epoch_order = (
            np.asarray(order, dtype=np.int64) if order is not None else None
        )
        self._epoch_pos = int(state["epoch_pos"])
        self.skipped_steps = int(state["skipped_steps"])
        self._snapshot = None
        self._good_since_snapshot = 0
        # Leaf slots re-read parameter arrays (in-place checkpoint loads
        # included), but a restore is a wholesale state transition —
        # recapture rather than reason about it.
        self.invalidate_graph()
        return int(meta["step"])

    # ------------------------------------------------------------------
    def _run(
        self,
        start_step: int,
        callback: Optional[Callable[[TrainingRecord], None]] = None,
        checkpoint_manager: Optional[CheckpointManager] = None,
        checkpoint_every: int = 0,
    ) -> History:
        cfg = self.config
        tokens_per_step = cfg.global_batch * self.train_data.seq_len
        if (
            self.guard is not None
            and self.guard.config.rewind
            and self._snapshot is None
        ):
            # Arm the rewind path before the first step so even an
            # immediately bad run can restore its initial state.
            self._capture_snapshot()
        loss = float("nan")
        for step in range(start_step, cfg.max_steps):
            loss = self.train_step(step)
            val = None
            if cfg.eval_every and (step + 1) % cfg.eval_every == 0:
                val = self.evaluate()
            if val is not None or (cfg.log_every and step % cfg.log_every == 0):
                record = TrainingRecord(
                    step=step,
                    tokens=(step + 1) * tokens_per_step,
                    loss=loss,
                    val_loss=val,
                    lr=self.schedule(step),
                    grad_norm=self.last_grad_norm,
                    tape_nodes=ag_stats.tape_nodes,
                    nodes_fused=ag_stats.nodes_fused(),
                    arena_hit_rate=self.last_arena_hit_rate,
                    step_time=self.last_step_time,
                    phase_times=self.last_phase_times,
                )
                self.history.log(record)
                if callback is not None:
                    callback(record)
            if (
                checkpoint_manager is not None
                and checkpoint_every
                and (step + 1) % checkpoint_every == 0
            ):
                done = step + 1
                if cfg.async_checkpoint:
                    # Snapshot at the step boundary (cheap memcpy into
                    # staging buffers), then hand off: serialize+fsync
                    # happen on the writer thread, registration with the
                    # manager after a successful publish.
                    if self.ckpt_writer is None:
                        self.ckpt_writer = AsyncCheckpointWriter(
                            queue_size=cfg.ckpt_queue_size
                        )
                    with span("ckpt_snapshot", {"step": done}):
                        state = self._build_save_state(
                            step=done, val_loss=val, copy=True
                        )
                    with span("ckpt_submit", {"step": done}):
                        self.ckpt_writer.submit(
                            checkpoint_manager.path_for(done),
                            state,
                            step=done,
                            metric=val,
                            manager=checkpoint_manager,
                            fault_hook=self._ckpt_fault_hook(),
                        )
                else:
                    with span("ckpt_write", {"step": done}):
                        checkpoint_manager.save(
                            self.model,
                            self.optimizer,
                            step=done,
                            metric=val,
                            writer=lambda p: self.save(p, step=done, val_loss=val),
                        )
        if self.ckpt_writer is not None:
            # Settle in-flight writes before the run is declared done; a
            # failed background write is surfaced (logged + counted), not
            # fatal — the torn artifact is skipped by load_latest.
            self.ckpt_writer.drain()
            if self.ckpt_writer.failed:
                logger.warning(
                    "%d async checkpoint write(s) failed (last: %s)",
                    self.ckpt_writer.failed,
                    self.ckpt_writer.last_error_path,
                )
        # Always close with a final evaluation point.
        final_val = self.evaluate()
        self.history.log(
            TrainingRecord(
                step=cfg.max_steps,
                tokens=cfg.max_steps * tokens_per_step,
                loss=loss,
                val_loss=final_val,
            )
        )
        # Persistent mp echo workers die with the run (a later fit
        # lazily respawns them).
        self.close_dist()
        return self.history

    def train(self, callback: Optional[Callable[[TrainingRecord], None]] = None) -> History:
        """Run ``max_steps`` optimizer steps; returns the history."""
        return self._run(0, callback)

    def fit(
        self,
        resume: Union[None, str, CheckpointManager] = None,
        callback: Optional[Callable[[TrainingRecord], None]] = None,
        checkpoint_manager: Optional[CheckpointManager] = None,
        checkpoint_every: int = 0,
    ) -> History:
        """Train, optionally resuming from a checkpoint.

        ``resume`` may be a checkpoint path or a
        :class:`CheckpointManager` (its newest valid checkpoint is
        used).  ``checkpoint_manager`` + ``checkpoint_every`` write a
        rotating checkpoint every N completed steps.
        """
        start = 0
        if resume is not None:
            if isinstance(resume, CheckpointManager):
                path, start = resume.load_newest(self.restore)
                if checkpoint_manager is None:
                    checkpoint_manager = resume
            else:
                path, start = resume, self.restore(resume)
            logger.info("resumed from %s at step %d", path, start)
        return self._run(start, callback, checkpoint_manager, checkpoint_every)
