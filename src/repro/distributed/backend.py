"""The ProcessGroup abstraction: one collectives API, two backends.

Everything distributed in this repo is written SPMD-style against
:class:`ProcessGroup` — a per-rank handle exposing ``all_reduce`` /
``all_to_all`` / ``all_gather`` / ``broadcast`` / ``barrier`` plus an
*asynchronous* all-to-all (:meth:`ProcessGroup.isend_all_to_all`) that
lets callers overlap communication with independent local work.  Two
backends implement it:

- ``"sim"`` (:mod:`repro.distributed.sim_backend`): rank-threads
  rendezvous in process and the reduction runs through the reference
  collectives — the bit-exact reference, zero OS dependencies.
- ``"mp"`` (:mod:`repro.distributed.mp_backend`): real forked worker
  processes, a full pipe mesh for headers, and shared-memory segments
  for payloads (:mod:`repro.distributed.shm`).  Faults are *real*: a
  scheduled ``rank_failure`` is a SIGKILL, detected by peers through
  recv deadlines and by the supervisor through result-pipe EOF.

Both backends use the identical reduction formula
(:meth:`ProcessGroup._reduce_sum`: ``(p0 + p1) + p2 ...`` in rank
order), so for the same SPMD function they produce bit-identical
results (tested).  A collective fault fires in one place on either:
:meth:`FaultSite._maybe_fault`, run by the group entering the
collective; a transport supplies only what "a rank dies" means.

Entry point::

    result = run_distributed(fn, world=4, backend="mp")
    # fn(group) ran once per rank; result.values[r] is rank r's return.
"""

from __future__ import annotations

import abc
import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.resilience import counters
from repro.resilience.faults import (
    COLLECTIVE_KINDS,
    CORRUPT_PAYLOAD,
    DELAY,
    RANK_FAILURE,
    FaultSchedule,
)

BACKENDS = ("sim", "mp")


class WorkerFailure(RuntimeError):
    """A distributed run lost one or more ranks (crash, kill, timeout).

    Attributes:
        failed_ranks: ranks that died or timed out.
        reason: short classification (``"died"``, ``"timeout"``,
            ``"error"``).
    """

    def __init__(
        self, failed_ranks: Sequence[int], reason: str, detail: str = ""
    ) -> None:
        msg = f"rank(s) {sorted(failed_ranks)} {reason}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.failed_ranks = sorted(failed_ranks)
        self.reason = reason


class PendingAllToAll(abc.ABC):
    """Handle for an in-flight all-to-all posted by
    :meth:`ProcessGroup.isend_all_to_all`.

    ``self_payload`` is this rank's own (diagonal) buffer, available
    immediately — callers overlap work on it while remote rows are in
    flight — and :meth:`wait` blocks until every remote row has
    arrived, returning the full received list indexed by source rank.
    """

    @property
    @abc.abstractmethod
    def self_payload(self) -> Any:
        ...

    @abc.abstractmethod
    def wait(self) -> List[Any]:
        ...


class FaultSite(abc.ABC):
    """Where a collective fault fires: whatever runs the collective.

    Every :class:`ProcessGroup` rank is one, and so is each of the
    trainer's echo groups (:func:`open_echo_group`), which stands for
    every rank of its world (``rank`` is ``None``).  The schedule is
    handed in as an argument — ``run_distributed(..., faults=...)``, or
    the trainer's injector — never read from a process global.
    """

    rank: Optional[int] = None
    #: Faults delivered into this site's collectives, the logical step
    #: they are matched against, and what serialises access to the
    #: schedule (rank-threads share one; forked ranks each own a copy).
    _schedule: Optional[FaultSchedule] = None
    _step: Optional[int] = None
    _fault_lock: Any = contextlib.nullcontext()

    def _maybe_fault(self, op: str, outgoing: Sequence[np.ndarray] = ()) -> list:
        """Fire any fault armed here for ``op``: match, consume, count
        ``injected_<kind>``, then die / corrupt / sleep.

        Returns ``outgoing`` — with one NaN planted when a
        ``corrupt_payload`` fired.  An event that finds nothing to
        corrupt (no non-empty float buffer, e.g. an exchange of integer
        ids) stays armed for the next collective that has one.
        """
        outgoing = list(outgoing)
        if self._schedule is None:
            return outgoing
        with self._fault_lock:
            event = self._schedule.match(
                COLLECTIVE_KINDS, step=self._step, op=op, rank=self.rank
            )
            if event is None or (event.rank is None and self.rank not in (0, None)):
                return outgoing  # unranked events fire once, on rank 0
            if event.kind == CORRUPT_PAYLOAD and not self._corrupt(outgoing):
                return outgoing
            self._schedule.consume(event)
            counters.increment(f"injected_{event.kind}")
        if event.kind == RANK_FAILURE:
            self._die(op, event.rank)
        elif event.kind == DELAY:
            time.sleep(event.delay_s)
        return outgoing

    @staticmethod
    def _corrupt(arrays: list) -> bool:
        """Replace the first non-empty float array of ``arrays`` with a
        copy holding one NaN; False when there is none."""
        for i, a in enumerate(arrays):
            if a.size and np.issubdtype(a.dtype, np.floating):
                arrays[i] = a = a.copy()
                a.reshape(-1)[0] = np.nan
                return True
        return False

    @abc.abstractmethod
    def _die(self, op: str, rank: Optional[int]) -> None:
        """Rank ``rank`` (the event's; ``None`` when it named none) fails
        in ``op``, as the transport knows failure."""


class ProcessGroup(FaultSite):
    """Per-rank SPMD handle over one communicator.

    All tensor-moving methods take this rank's contribution and return
    this rank's share of the result; ``wait_s`` accumulates the time
    this rank spent *blocked* waiting for remote data (the exposed,
    non-overlapped communication cost the benchmark gates on).  A fault
    can only name this rank, which never returns from the collective it
    was entering (``_die``).
    """

    rank: int
    world: int
    wait_s: float = 0.0

    def _faulted_sends(self, send: Sequence[np.ndarray]) -> List[np.ndarray]:
        """An all-to-all's fault step.  Corruption only ever hits a
        buffer bound for a peer (first in ring order), never the
        diagonal: the NaN must cross the transport to count."""
        send = [np.asarray(s) for s in send]
        ring = [(self.rank + k) % self.world for k in range(1, self.world)]
        hit = self._maybe_fault("all_to_all", [send[dst] for dst in ring])
        for dst, arr in zip(ring, hit):
            send[dst] = arr
        return send

    # -- collectives ---------------------------------------------------
    @abc.abstractmethod
    def all_reduce(self, arr: np.ndarray) -> np.ndarray:
        """Elementwise sum over ranks; every rank gets the total."""

    @abc.abstractmethod
    def all_gather(self, arr: np.ndarray) -> List[np.ndarray]:
        """Every rank gets the per-rank contributions in rank order."""

    @abc.abstractmethod
    def all_to_all(self, send: Sequence[np.ndarray]) -> List[np.ndarray]:
        """``send[dst]`` leaves this rank; returns arrivals by source."""

    @abc.abstractmethod
    def isend_all_to_all(
        self, send: Sequence[np.ndarray]
    ) -> PendingAllToAll:
        """Post the sends of an all-to-all and return immediately."""

    @abc.abstractmethod
    def broadcast(self, arr: np.ndarray, root: int = 0) -> np.ndarray:
        """Every rank receives ``root``'s array."""

    @abc.abstractmethod
    def barrier(self) -> None:
        """Block until every rank has entered."""

    # Shared reduction kernel: EVERY path that sums over ranks (both
    # backends, the echo groups, the reference collectives) reduces with
    # exactly this formula, so results are bit-identical across them.
    @staticmethod
    def _reduce_sum(
        parts_in_rank_order: Sequence[np.ndarray],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``((p0 + p1) + p2) + ...`` elementwise, into ``out`` when
        given (which must alias no part); the result keeps the parts'
        dtype.  That fold is the definition.  It is also what
        ``np.sum(np.stack(parts), axis=0)`` computes — an axis-0
        reduction of a stack accumulates rank by rank, so the two are
        bitwise equal (tested) — with one exception: 8 or more ranks of
        a *one-element* array stack to contiguous memory, which NumPy
        sums pairwise.  The fold needs no ``world``-times temporary and
        can run straight out of the ranks' windows."""
        first, *rest = (np.asarray(p) for p in parts_in_rank_order)
        if out is None:
            out = np.empty_like(first)
        if not rest:
            np.copyto(out, first)
            return out
        np.add(first, rest[0], out=out)
        for part in rest[1:]:
            np.add(out, part, out=out)
        return out


@dataclass
class DistributedRunResult:
    """Outcome of :func:`run_distributed` across the whole world."""

    backend: str
    world: int
    values: List[Any]
    wait_s_per_rank: List[float]
    elapsed_s: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)


def bucket_cuts(arrays: Sequence[np.ndarray]) -> List[int]:
    """Element offsets of ``arrays`` laid end to end as one bucket
    (``len(arrays) + 1`` of them).  A bucket is summed in one dtype, so
    the arrays must share theirs."""
    if len({a.dtype for a in arrays}) > 1:
        raise ValueError(
            "one all-reduce bucket holds one dtype, got "
            f"{sorted({a.dtype.name for a in arrays})}"
        )
    return [0, *np.cumsum([a.size for a in arrays]).tolist()]


def open_echo_group(
    world: int,
    backend: str = "sim",
    op_timeout_s: float = 10.0,
    schedule: Optional[FaultSchedule] = None,
):
    """Open the long-lived data-parallel seam of a single-process trainer.

    The caller is rank 0 of ``world`` ranks that all hold its gradient.
    ``group.all_reduce(arrays, scale, log, step)`` is the step's one
    exchange: ``arrays`` (one dtype) are this rank's gradients, the
    bucket that crosses the transport is ``[a * scale for a in arrays]``
    laid end to end, and each array is overwritten **in place** with its
    slice of the total over ``world`` ranks — after every peer has
    answered, so a :class:`~repro.resilience.faults.CollectiveFault`
    leaves every array as it was.  ``group.heal()`` repairs the group
    after such a fault and ``group.close()`` ends it.  ``"sim"`` reduces
    the bucket through the in-process reference collective; ``"mp"``
    moves it through ``world - 1`` persistent forked peers over
    shared-memory windows mapped once (and adds ``kill_rank``, a real
    SIGKILL).  Same reduction formula, same rank order, same single
    ``CommLog`` record: bit-identical.

    ``schedule`` delivers collective faults into the exchange, matched
    against ``step``.  The group stands for every rank, so an event of
    any rank fires here; a ``rank_failure`` kills the peer it names —
    peer 1 when it names none, a ``ValueError`` when it names rank 0
    (the caller) or a rank outside the world.
    """
    if backend == "sim":
        from repro.distributed.sim_backend import SimEchoGroup

        return SimEchoGroup(world, schedule)
    if backend == "mp":
        from repro.distributed.mp_backend import MpEchoGroup

        return MpEchoGroup(world, op_timeout_s, schedule)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


def run_distributed(
    fn: Callable[[ProcessGroup], Any],
    world: int,
    backend: str = "sim",
    timeout_s: float = 120.0,
    op_timeout_s: float = 30.0,
    faults: Optional[Sequence] = None,
    step: Optional[int] = None,
) -> DistributedRunResult:
    """Run ``fn(group)`` once per rank on the chosen backend.

    Args:
        fn: the SPMD body.  Called with a live :class:`ProcessGroup`;
            its return value lands in ``result.values[rank]``.  Under
            the ``"mp"`` backend ``fn`` executes in a forked child, so
            closures over parent state are fine (copy-on-write) but
            mutations do not propagate back — communicate through the
            return value.
        world: number of ranks.
        backend: ``"sim"`` or ``"mp"``.
        timeout_s: whole-run deadline enforced by the supervisor; on
            expiry surviving workers are killed, shared memory is
            swept, and :class:`WorkerFailure` is raised.
        op_timeout_s: per-recv deadline inside ``"mp"`` collectives —
            how long a rank waits on a silent peer before declaring a
            collective fault (real dead-rank detection).
        faults: optional sequence of
            :class:`repro.resilience.faults.FaultEvent` delivered into
            the workers.  Under ``"mp"`` these are *real*: a matching
            ``rank_failure`` SIGKILLs the worker, ``delay`` sleeps,
            ``corrupt_payload`` corrupts the sender's outgoing buffer.
        step: logical step for fault matching (``FaultEvent.step``).

    Raises:
        WorkerFailure: a rank died, errored, or the run timed out.
        ValueError: unknown backend / invalid world.
    """
    if world < 1:
        raise ValueError(f"world must be >= 1, got {world}")
    if backend == "sim":
        from repro.distributed.sim_backend import run_sim

        return run_sim(fn, world, faults=faults, step=step)
    if backend == "mp":
        from repro.distributed.mp_backend import run_mp

        return run_mp(
            fn,
            world,
            timeout_s=timeout_s,
            op_timeout_s=op_timeout_s,
            faults=faults,
            step=step,
        )
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
