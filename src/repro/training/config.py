"""What a training run is configured by: :class:`TrainerConfig`.

Read by the step (:mod:`repro.training.step`) and by the loop around it
(:mod:`repro.training.trainer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.resilience.guardrails import GuardrailConfig


@dataclass
class TrainerConfig:
    """Knobs for a :class:`~repro.training.trainer.Trainer` and its step.

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
        dp_world: when > 1, the step's gradients go through one
            data-parallel ``all_reduce`` per step over this many ranks
            (:func:`repro.training.step.sync_gradients`).  Must be a
            power of two: every rank holds the same gradient here, and
            only then is scaling by ``1/world`` and summing ``world``
            copies exact in floating point — any other world would
            silently perturb the trajectory, so it is rejected.
        dist_backend: transport for that all-reduce — ``"sim"`` (default,
            the in-process reference) or ``"mp"`` (persistent forked echo
            workers over shared memory); bit-identical, injected faults
            included (``docs/distributed.md``).
        steady_state / backend: the rung a step runs on — four
            configurations, described once in :mod:`repro.training.step`.
            ``backend`` is ``"eager"`` (default), ``"replay"`` or
            ``"cc"``; ``steady_state`` is a choice only for ``"eager"``
            (the compiled rungs set it, whatever was passed).
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
