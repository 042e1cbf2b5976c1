"""The training loop around :func:`repro.training.step.run_step`.

Mirrors the Megatron-LM recipe the paper uses (§3): Adam, gradient
clipping at 1.0, warmup + decay schedule, a global batch split into micro
batches with gradient accumulation, and periodic validation.  MoE models
additionally log routing balance statistics (dynamic capacity factor)
that feed the performance model.  The step itself — micro batches,
non-finite skip, gradient sync, clip and update, on one of four rungs —
is :mod:`repro.training.step`; :class:`Trainer` keeps the loop: data
order, guardrail bookkeeping and skip-and-rewind
(:class:`repro.resilience.NumericGuard`), routing stats, telemetry,
the data-parallel group, and checkpoints whose resume round-trips model,
optimizer, data order and RNG state bit-exactly (``docs/robustness.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.autograd import get_arena, no_grad
from repro.autograd import stats as ag_stats
from repro.autograd.graph import StepGraph
from repro.observability.metrics import registry
from repro.observability.tracing import get_tracer, span
from repro.data.dataset import LMDataset
from repro.moe.capacity import min_capacity_factor
from repro.nn.transformer import TransformerLM
from repro.resilience import guardrails as gr
from repro.resilience.faults import FaultInjector
from repro.resilience.guardrails import NumericGuard
from repro.checkpoint import (
    AsyncCheckpointWriter,
    CheckpointError,
    CheckpointManager,
    CheckpointState,
    ShardReader,
    apply_state,
    build_state,
    load_checkpoint,
    write_state,
)
from repro.training.config import TrainerConfig
from repro.training.lr_schedule import ConstantLR, LRSchedule
from repro.training.metrics import History, TrainingRecord
from repro.training.optim import Adam, Optimizer
from repro.training.step import StepState, run_step, sync_gradients
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


class Trainer:
    """Drives one model over one dataset; records a :class:`History`.

    The loop lives here — data order, guardrail bookkeeping and rewind,
    routing stats, telemetry, checkpoints, the data-parallel group;
    each step is :func:`repro.training.step.run_step` on ``self.state``.
    """

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
        if config is None:
            config = TrainerConfig()
        if len(train_data) < config.micro_batch:
            raise ValueError(
                f"the training set holds {len(train_data)} sequences, fewer "
                f"than one micro batch of micro_batch={config.micro_batch}"
            )
        self.model = model
        self.train_data = train_data
        self.val_data = val_data
        self.config = config
        self.optimizer = optimizer or Adam(model.parameters(), lr=6e-4)
        self.schedule = schedule or ConstantLR(self.optimizer.lr)
        self.rng = get_rng(rng)
        self.history = History()
        self.routing_stats: List[RoutingStats] = []
        #: The layers routing stats are read from, found once.
        self._moe_layers = [
            m for m in model.modules() if getattr(m, "num_experts", None) is not None
        ]
        self._epoch_order: Optional[np.ndarray] = None
        self._epoch_pos = 0
        self.skipped_steps = 0
        self.guard = (
            NumericGuard(config.guardrails) if config.guardrails else None
        )
        self.fault_injector = fault_injector
        #: Chaos seam: the injector's TORN_WRITE hook, when armed.
        self._ckpt_fault_hook = getattr(fault_injector, "checkpoint_fault", None)
        #: What each step runs on; it owns the captured graph.
        self.state = StepState(
            model, self.optimizer, self.schedule, config, self.guard, fault_injector
        )
        #: Device mesh recorded into checkpoints; drives elastic resume
        #: (expert-weight resharding) when the saved mesh differs.
        self.mesh = mesh
        #: Lazily created background writer (``async_checkpoint=True``).
        self.ckpt_writer: Optional[AsyncCheckpointWriter] = None
        #: Last known-good checkpoint state the rewind restores.
        self._snapshot: Optional[CheckpointState] = None
        self._good_since_snapshot = 0
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
        #: the top of the first step, closed by close_dist / end of fit).
        self._echo_group = None
        #: Arena hit rate when the most recent train_step ended (``None``
        #: on the reference rung).
        self.last_arena_hit_rate: Optional[float] = None

    @property
    def step_graph(self) -> Optional[StepGraph]:
        """The state's compiled step graph (read-only)."""
        return self.state.graph

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
        for module in self._moe_layers:
            routing = getattr(module, "last_routing", None)
            if routing is None:
                continue
            factors.append(
                min_capacity_factor(
                    routing.expert_indices, module.num_experts, routing.expert_indices.shape[1]
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

    def _capture_snapshot(self) -> None:
        """Keep a known-good checkpoint state for the rewind."""
        self._snapshot = build_state(self.model, self.optimizer, copy=True)
        self._good_since_snapshot = 0

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
        """The step's gradient sync over this trainer's group."""
        sync_gradients(self.state, self._dist_group(), self.comm_log)

    def close_dist(self) -> None:
        """Close the data-parallel group (under "mp": its forked workers)."""
        if self._echo_group is not None:
            self._echo_group.close()
            self._echo_group = None

    # ------------------------------------------------------------------
    def evaluate(self) -> Optional[float]:
        """Mean validation LM loss over ``eval_batches`` fixed batches."""
        if self.val_data is None:
            return None
        self.model.eval()
        losses = []
        # Eval reuses pooled buffers too; they stay live until the next
        # train step retires the generation.
        with self.state.scope(), span("eval"), no_grad():
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
        cfg = self.config
        t0 = time.perf_counter()
        with span("step", {"step": step}):
            sync = None
            if cfg.dp_world > 1:
                # Fork the "mp" peers before the step grows the heap: a
                # worker's memory high-water mark starts at what it
                # inherits.
                self._dist_group()
                sync = self._sync_gradients
            # The step draws its micro batches from here one at a time.
            batches = iter(partial(self._next_batch, cfg.micro_batch), None)
            loss, self.last_grad_norm, verdict = run_step(
                self.state, batches, step, sync
            )
            self._keep_books(step, loss, verdict)
            with span("routing"):
                self._collect_routing_stats(step)
        self.last_arena_hit_rate = get_arena().hit_rate() if cfg.steady_state else None
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

    def _keep_books(self, step: int, loss: float, verdict: str) -> None:
        """Guardrail bookkeeping after a step: count a good step and
        snapshot on cadence, or count a skip and rewind when due."""
        guard = self.guard
        if verdict == gr.OK:
            if guard is not None:
                guard.record_good(loss)
                self._good_since_snapshot += 1
                if (
                    guard.config.rewind
                    and self._good_since_snapshot >= guard.config.snapshot_every
                ):
                    # Only a rewind ever reads a snapshot.
                    with span("snapshot"):
                        self._capture_snapshot()
            return
        self.skipped_steps += 1
        if guard is None:
            logger.warning("step %d skipped (%s)", step, verdict)
            return
        rewind_due = guard.record_bad(verdict)
        logger.warning(
            "step %d skipped (%s), bad streak %d", step, verdict, guard.bad_streak
        )
        if rewind_due and self._snapshot is not None:
            logger.warning("step %d: rewinding to last known-good state", step)
            with span("snapshot"):
                apply_state(self._snapshot, self.model, self.optimizer)
            guard.record_rewind()

    # ------------------------------------------------------------------
    # Checkpoint round-trip (see docs/robustness.md).
    # ------------------------------------------------------------------
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
        write_state(path, state, fault_hook=self._ckpt_fault_hook)

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
        self.state.invalidate_graph()
        return int(meta["step"])

    # ------------------------------------------------------------------
    def train(self, callback: Optional[Callable[[TrainingRecord], None]] = None) -> History:
        """Run ``max_steps`` optimizer steps; returns the history."""
        return self.fit(callback=callback)

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
        start_step = 0
        if resume is not None:
            if isinstance(resume, CheckpointManager):
                path, start_step = resume.load_newest(self.restore)
                if checkpoint_manager is None:
                    checkpoint_manager = resume
            else:
                path, start_step = resume, self.restore(resume)
            logger.info("resumed from %s at step %d", path, start_step)
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
                            fault_hook=self._ckpt_fault_hook,
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
