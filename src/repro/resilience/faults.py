"""Deterministic fault injection for the training and distributed layers.

Production MoE systems treat failures — dead ranks, corrupted or delayed
payloads, overflowed gradients — as routine events, and a recovery path
that is never exercised is dead code.  This module makes every failure
reproducible:

- :class:`FaultEvent` / :class:`FaultSchedule` describe *when* faults
  fire (by trainer step and collective op) on a seeded, deterministic
  schedule;
- :class:`RetryPolicy` governs recovery: bounded retries with
  exponential backoff and a simulated-time budget;
- :class:`FaultInjector` delivers the scheduled faults into
  :mod:`repro.distributed.collectives` (via :func:`inject_faults`) and
  into gradients inside :class:`repro.training.trainer.Trainer`.

Collectives raise :class:`CollectiveFault` when a simulated rank fails;
the injector's retry policy re-runs the collective, and the schedule
decides whether the failure is transient (recovers within the retry
budget) or permanent (propagates to the trainer, which skips the step).

Example::

    schedule = FaultSchedule([
        FaultEvent(step=3, kind=NAN_GRAD),
        FaultEvent(step=5, kind=RANK_FAILURE, op="all_reduce"),
    ])
    injector = FaultInjector(schedule, policy=RetryPolicy(max_retries=3))
    with inject_faults(injector):
        trainer = Trainer(..., fault_injector=injector)
        trainer.train()
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.resilience import counters

# Fault kinds -----------------------------------------------------------
NAN_GRAD = "nan_grad"  # overwrite one gradient entry with NaN
INF_GRAD = "inf_grad"  # overwrite one gradient entry with +inf
RANK_FAILURE = "rank_failure"  # collective raises CollectiveFault
CORRUPT_PAYLOAD = "corrupt_payload"  # collective payload gets a NaN
DELAY = "delay"  # collective completes after simulated latency
TORN_WRITE = "torn_write"  # checkpoint write killed mid-shard

GRADIENT_KINDS = frozenset({NAN_GRAD, INF_GRAD})
COLLECTIVE_KINDS = frozenset({RANK_FAILURE, CORRUPT_PAYLOAD, DELAY})
CHECKPOINT_KINDS = frozenset({TORN_WRITE})
ALL_KINDS = GRADIENT_KINDS | COLLECTIVE_KINDS | CHECKPOINT_KINDS


class CollectiveFault(RuntimeError):
    """A collective failure (rank death / network fault)."""

    def __init__(
        self,
        op: str,
        step: Optional[int],
        attempt: int,
        detail: str = "",
    ) -> None:
        msg = (
            f"fault in collective {op!r} (step={step}, attempt={attempt})"
        )
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.op = op
        self.step = step
        self.attempt = attempt
        self.detail = detail


# Why a retry wrapper ultimately gave up — exhausting the bounded retry
# count and exhausting the simulated-time budget are different failures
# (the first says the fault is persistent, the second that recovery is
# too slow) and operators tune different knobs for each.
RETRIES_EXHAUSTED = "retries_exhausted"
TIMEOUT_EXHAUSTED = "timeout_exhausted"


class RetryExhaustedError(CollectiveFault):
    """A retried collective gave up; ``reason`` says which budget ran out.

    Subclasses :class:`CollectiveFault` so every existing handler (the
    trainer's skip-step path, chaos suites) keeps working; the original
    fault is chained as ``__cause__``.
    """

    def __init__(
        self,
        op: str,
        step: Optional[int],
        attempt: int,
        reason: str,
        waited_s: float,
    ) -> None:
        if reason not in (RETRIES_EXHAUSTED, TIMEOUT_EXHAUSTED):
            raise ValueError(f"unknown give-up reason {reason!r}")
        detail = (
            f"gave up after {attempt} attempt(s): "
            + (
                "retry budget exhausted"
                if reason == RETRIES_EXHAUSTED
                else f"timeout budget exhausted (waited {waited_s:.3f}s)"
            )
        )
        super().__init__(op, step, attempt, detail)
        self.reason = reason
        self.waited_s = waited_s


class CheckpointWriteFault(RuntimeError):
    """A simulated mid-write checkpoint death (power loss, OOM kill).

    Raised out of :meth:`FaultInjector.checkpoint_fault` *inside* the
    shard writer, before the manifest publishes — the checkpoint
    directory is left torn, exactly as a real crash would leave it, and
    the recovery contract (``load_latest`` falls back past it) is
    exercised end to end.
    """

    def __init__(self, key: str, step: Optional[int]) -> None:
        super().__init__(
            f"simulated torn checkpoint write at shard {key!r} (step={step})"
        )
        self.key = key
        self.step = step


@dataclass
class FaultEvent:
    """One scheduled fault.

    Attributes:
        kind: one of the module-level fault kinds.
        step: trainer step the event is armed for (``None`` = any step).
        op: collective op name filter (``"*"`` = any) — ignored for
            gradient faults.
        rank: rank filter (``None`` = any rank; an unranked collective
            fault fires once, on rank 0).  Every process-group backend
            honours it — ``run_distributed(..., backend="sim")`` and
            ``"mp"`` alike, where each rank matches its own rank before
            dying / corrupting its payload / sleeping.  Only the
            :func:`inject_faults` hook
            (:meth:`FaultInjector.run_collective`), which sees all ranks
            of an in-process collective at once, ignores it.
        count: how many times the event fires before it is exhausted.
            A ``RANK_FAILURE`` with ``count=2`` under a retry policy
            fails the first two attempts and succeeds on the third —
            i.e. ``count`` controls whether a failure is transient
            (``count <= max_retries``) or permanent.
        delay_s: simulated latency for ``DELAY`` events (the
            multi-process backend really sleeps).
    """

    kind: str
    step: Optional[int] = None
    op: str = "*"
    rank: Optional[int] = None
    count: int = 1
    delay_s: float = 0.0
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    @property
    def exhausted(self) -> bool:
        return self.fired >= self.count

    def matches(
        self,
        kinds: Iterable[str],
        step: Optional[int],
        op: str,
        rank: Optional[int] = None,
    ) -> bool:
        if self.exhausted or self.kind not in kinds:
            return False
        if self.step is not None and step is not None and self.step != step:
            return False
        if self.op != "*" and op != "*" and self.op != op:
            return False
        if self.rank is not None and rank is not None and self.rank != rank:
            return False
        return True


class FaultSchedule:
    """An ordered, consumable set of :class:`FaultEvent`.

    Deterministic: matching scans events in insertion order and each
    event fires exactly ``count`` times, so two runs with the same
    schedule see identical faults.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = list(events)

    @classmethod
    def random(
        cls,
        seed: int,
        max_steps: int,
        nan_grad_rate: float = 0.0,
        rank_failure_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        ops: Sequence[str] = ("all_reduce", "all_to_all"),
        failure_count: int = 1,
    ) -> "FaultSchedule":
        """Sample a schedule from per-step fault rates (seeded)."""
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for step in range(max_steps):
            if nan_grad_rate and rng.random() < nan_grad_rate:
                events.append(FaultEvent(NAN_GRAD, step=step))
            if rank_failure_rate and rng.random() < rank_failure_rate:
                op = ops[int(rng.integers(len(ops)))]
                events.append(
                    FaultEvent(RANK_FAILURE, step=step, op=op, count=failure_count)
                )
            if corrupt_rate and rng.random() < corrupt_rate:
                op = ops[int(rng.integers(len(ops)))]
                events.append(FaultEvent(CORRUPT_PAYLOAD, step=step, op=op))
        return cls(events)

    def match(
        self,
        kinds: Iterable[str],
        step: Optional[int] = None,
        op: str = "*",
        rank: Optional[int] = None,
    ) -> Optional[FaultEvent]:
        """First unexhausted event matching ``kinds``/``step``/``op``."""
        for event in self.events:
            if event.matches(kinds, step, op, rank):
                return event
        return None

    def consume(self, event: FaultEvent) -> None:
        event.fired += 1

    @property
    def pending(self) -> int:
        """Total fires remaining across all events."""
        return sum(e.count - e.fired for e in self.events)


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff (simulated time).

    ``run`` retries a callable on :class:`CollectiveFault` up to
    ``max_retries`` times, waiting ``base_delay_s * backoff**attempt``
    (accumulated into ``simulated_wait_s`` — nothing actually sleeps)
    and giving up early once the accumulated wait would exceed
    ``timeout_s``.  A final retry whose backoff wait lands *exactly* on
    the remaining budget is allowed: the comparison carries a relative
    tolerance so accumulated floating-point error in ``waited`` cannot
    spuriously reject it.  Giving up raises
    :class:`RetryExhaustedError` whose ``reason`` distinguishes a
    persistent fault (``retries_exhausted``) from a too-slow recovery
    (``timeout_exhausted``).
    """

    max_retries: int = 3
    base_delay_s: float = 0.05
    backoff: float = 2.0
    timeout_s: float = 30.0

    attempts: int = field(default=0, compare=False)
    retries: int = field(default=0, compare=False)
    gave_up: int = field(default=0, compare=False)
    simulated_wait_s: float = field(default=0.0, compare=False)

    def run(self, fn: Callable[[int], object], op: str = "*"):
        attempt = 0
        waited = 0.0
        while True:
            self.attempts += 1
            try:
                return fn(attempt)
            except CollectiveFault as fault:
                attempt += 1
                wait = self.base_delay_s * self.backoff ** (attempt - 1)
                # `waited` is a float accumulation (0.05 + 0.1 + 0.2 !=
                # 0.35 exactly), so an exact-budget final retry must not
                # be rejected by bit-level excess: only a genuine
                # overshoot beyond the relative tolerance counts.
                budget = self.timeout_s + 1e-9 * max(1.0, abs(self.timeout_s))
                reason = None
                if attempt > self.max_retries:
                    reason = RETRIES_EXHAUSTED
                elif waited + wait > budget:
                    reason = TIMEOUT_EXHAUSTED
                if reason is not None:
                    self.gave_up += 1
                    counters.increment("collective_gave_up")
                    raise RetryExhaustedError(
                        fault.op, fault.step, attempt, reason, waited
                    ) from fault
                waited += wait
                self.simulated_wait_s += wait
                self.retries += 1
                counters.increment("collective_retries")


def _corrupt_payloads(payloads):
    """Copy ``payloads`` (possibly nested lists of arrays) with one NaN
    planted in the first non-empty float array found; ``None`` when
    there is none to plant it in."""
    planted = [False]

    def walk(obj):
        if isinstance(obj, np.ndarray):
            if (
                not planted[0]
                and obj.size
                and np.issubdtype(obj.dtype, np.floating)
            ):
                out = obj.astype(obj.dtype, copy=True)
                out.reshape(-1)[0] = np.nan
                planted[0] = True
                return out
            return obj
        if isinstance(obj, (list, tuple)):
            return [walk(o) for o in obj]
        return obj

    corrupted = walk(payloads)
    return corrupted if planted[0] else None


class FaultInjector:
    """Delivers scheduled faults into collectives and gradients.

    Install into the collectives layer with :func:`inject_faults`; pass
    to :class:`repro.training.trainer.Trainer` (``fault_injector=``) so
    gradient faults fire and ``current_step`` tracks the training step.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.schedule = schedule
        self.policy = policy
        self.current_step: Optional[int] = None
        self.collective_calls = 0
        self.simulated_delay_s = 0.0

    # -- collectives hook (called by repro.distributed.collectives) ----
    def run_collective(self, op: str, world: int, payloads, compute):
        """Run one collective under the fault schedule + retry policy."""
        self.collective_calls += 1

        def attempt(k: int):
            event = self.schedule.match(
                COLLECTIVE_KINDS, step=self.current_step, op=op
            )
            data = payloads
            if event is not None and event.kind == CORRUPT_PAYLOAD:
                data = _corrupt_payloads(payloads)
                if data is None:
                    # Nothing to corrupt (e.g. an exchange of integer
                    # ids): the event stays armed for a payload that
                    # has a float in it.
                    data, event = payloads, None
            if event is not None:
                self.schedule.consume(event)
                counters.increment(f"injected_{event.kind}")
                if event.kind == RANK_FAILURE:
                    raise CollectiveFault(op, self.current_step, k)
                if event.kind == DELAY:
                    self.simulated_delay_s += event.delay_s
            return compute(data)

        if self.policy is not None:
            return self.policy.run(attempt, op)
        return attempt(0)

    # -- checkpoint hook (called by the ShardWriter per shard) ---------
    def checkpoint_fault(self, key: str) -> None:
        """Fire any armed ``TORN_WRITE`` fault for shard ``key``.

        Passed as ``fault_hook`` into the shard writer, which calls it
        immediately before each shard hits disk.  An event with
        ``op="*"`` kills the very first shard; ``op="<shard key>"``
        kills the write mid-stream, after earlier shards have landed —
        either way the manifest never publishes and the directory is
        left torn for the recovery path to skip.
        """
        event = self.schedule.match(
            CHECKPOINT_KINDS, step=self.current_step, op=key
        )
        if event is None:
            return
        self.schedule.consume(event)
        counters.increment(f"injected_{event.kind}")
        raise CheckpointWriteFault(key, self.current_step)

    # -- gradient hook (called by the Trainer after backward) ----------
    def corrupt_gradients(self, step: int, params) -> bool:
        """Fire any gradient fault armed for ``step``; returns True if fired."""
        self.current_step = step
        event = self.schedule.match(GRADIENT_KINDS, step=step)
        if event is None:
            return False
        self.schedule.consume(event)
        value = np.nan if event.kind == NAN_GRAD else np.inf
        for p in params:
            if p.grad is not None and p.grad.size:
                p.grad.reshape(-1)[0] = value
                counters.increment(f"injected_{event.kind}")
                return True
        return False


@contextlib.contextmanager
def inject_faults(injector: FaultInjector):
    """Install ``injector`` as the collectives fault hook for a scope."""
    from repro.distributed import collectives

    previous = collectives.get_fault_hook()
    collectives.set_fault_hook(injector)
    try:
        yield injector
    finally:
        collectives.set_fault_hook(previous)
