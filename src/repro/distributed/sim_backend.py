"""In-process reference backend: rank-threads + barrier rendezvous.

Each rank is a thread; collectives deposit per-rank payloads into
shared slots, rendezvous on a :class:`threading.Barrier`, and one
thread (the barrier action) computes the result through the reference
collectives in :mod:`repro.distributed.collectives` — so the ``"sim"``
backend is bit-exact with the in-process reference by construction and
needs nothing from the OS.  It is the semantics oracle the ``"mp"``
backend is tested against.

Faults passed to :func:`run_sim` are matched per rank (``FaultEvent
.rank``): a ``rank_failure`` raises in that rank's thread and aborts
the barrier so peers unwind promptly, each naming the collective and
step it died in; ``delay`` really sleeps; ``corrupt_payload`` plants a
NaN in a buffer the matched rank sends (the fault step itself is
:class:`~repro.distributed.backend.FaultSite`'s, shared with ``"mp"``
and the trainer's echo groups).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.distributed import collectives
from repro.distributed.backend import (
    DistributedRunResult,
    FaultSite,
    PendingAllToAll,
    ProcessGroup,
    WorkerFailure,
    bucket_cuts,
)
from repro.observability.tracing import span
from repro.resilience.faults import CollectiveFault, FaultEvent, FaultSchedule


class _Rendezvous:
    """Shared slots + barrier; the barrier action computes in one thread."""

    def __init__(self, world: int) -> None:
        self.world = world
        self.slots: List[Any] = [None] * world
        self.out: List[Any] = [None] * world
        self._compute: Optional[Callable[[List[Any]], List[Any]]] = None
        self.barrier = threading.Barrier(world, action=self._run)
        self.fault_lock = threading.Lock()

    def _run(self) -> None:
        self.out = self._compute(self.slots)  # type: ignore[misc]

    def exchange(self, group: "SimProcessGroup", op: str, payload, compute):
        """Deposit, rendezvous, pick up this rank's share of ``op``.

        No trailing barrier is needed: the next collective cannot
        overwrite ``slots`` until *every* rank re-enters the barrier,
        which requires each to have read its result first.
        """
        self.slots[group.rank] = payload
        self._compute = compute  # identical callable from every rank
        t0 = time.perf_counter()
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise CollectiveFault(
                op, group._step, 0, detail="peer rank failed (barrier broken)"
            ) from None
        finally:
            group.wait_s += time.perf_counter() - t0
        return self.out[group.rank]


class _SimPending(PendingAllToAll):
    """Deferred all-to-all: the exchange runs at :meth:`wait`, after the
    caller's overlapped local work — values are identical either way."""

    def __init__(self, group: "SimProcessGroup", send: List[np.ndarray]) -> None:
        self._group = group
        self._send = send
        self._self = np.array(send[group.rank], copy=True)

    @property
    def self_payload(self) -> np.ndarray:
        return self._self

    def wait(self) -> List[np.ndarray]:
        return self._group.all_to_all(self._send)


class SimProcessGroup(ProcessGroup):
    def __init__(
        self,
        rank: int,
        world: int,
        rendezvous: _Rendezvous,
        schedule: Optional[FaultSchedule] = None,
        step: Optional[int] = None,
    ) -> None:
        self.rank = rank
        self.world = world
        self.wait_s = 0.0
        self._rv = rendezvous
        self._schedule = schedule
        self._step = step
        self._fault_lock = rendezvous.fault_lock

    def _die(self, op: str, rank: Optional[int]) -> None:
        self._rv.barrier.abort()  # peers unwind instead of hanging
        raise CollectiveFault(
            op, self._step, 0, detail=f"rank {self.rank} failed"
        )

    # -- collectives ---------------------------------------------------
    def all_reduce(self, arr: np.ndarray) -> np.ndarray:
        (arr,) = self._maybe_fault("all_reduce", [np.asarray(arr)])

        def compute(slots):
            return collectives.all_reduce(slots)

        return self._rv.exchange(self, "all_reduce", arr, compute)

    def all_gather(self, arr: np.ndarray) -> List[np.ndarray]:
        (arr,) = self._maybe_fault("all_gather", [np.asarray(arr)])

        def compute(slots):
            parts = [np.array(s, copy=True) for s in slots]
            return [[p.copy() for p in parts] for _ in range(len(slots))]

        return self._rv.exchange(self, "all_gather", arr, compute)

    def all_to_all(self, send: Sequence[np.ndarray]) -> List[np.ndarray]:
        send = self._faulted_sends(send)

        def compute(slots):
            return collectives.all_to_all(slots)

        return self._rv.exchange(self, "all_to_all", send, compute)

    def isend_all_to_all(self, send: Sequence[np.ndarray]) -> PendingAllToAll:
        return _SimPending(self, [np.asarray(s) for s in send])

    def broadcast(self, arr: np.ndarray, root: int = 0) -> np.ndarray:
        (arr,) = self._maybe_fault("broadcast", [np.asarray(arr)])

        def compute(slots):
            src = np.asarray(slots[root])
            return [np.array(src, copy=True) for _ in range(len(slots))]

        return self._rv.exchange(self, "broadcast", arr, compute)

    def barrier(self) -> None:
        self.all_gather(np.zeros(1))


class SimEchoGroup(FaultSite):
    """The trainer seam in process (:func:`~repro.distributed.backend
    .open_echo_group`): ``world`` ranks holding the same bucket, reduced
    by one call of the reference collective.  A peer's death fails the
    exchange it happens in; nothing to heal or close."""

    def __init__(self, world: int, schedule: Optional[FaultSchedule] = None) -> None:
        self.world = world
        self._schedule = schedule
        self._span_args = {"world": world}

    def _die(self, op: str, rank: Optional[int]) -> None:
        peer = 1 if rank is None else rank
        if not 1 <= peer < self.world:
            raise ValueError(f"can only kill peer ranks 1..{self.world - 1}")
        raise CollectiveFault(op, self._step, 0, detail=f"rank {peer} failed")

    def all_reduce(
        self,
        arrays: Sequence[np.ndarray],
        scale: float = 1.0,
        log=None,
        step: Optional[int] = None,
    ) -> None:
        if not arrays:
            return
        cuts = bucket_cuts(arrays)
        with span("all_reduce", self._span_args):
            self._step = step
            sent = self._maybe_fault("all_reduce", arrays)
            bucket = np.empty(cuts[-1], arrays[0].dtype)
            for a, lo, hi in zip(sent, cuts, cuts[1:]):
                np.multiply(a, float(scale), out=bucket[lo:hi].reshape(a.shape))
            total = collectives.all_reduce([bucket] * self.world, log)[0]
            for a, lo, hi in zip(arrays, cuts, cuts[1:]):
                a[...] = total[lo:hi].reshape(a.shape)

    def heal(self) -> List[int]:
        return []

    def close(self) -> None:
        pass


def run_sim(
    fn: Callable[[ProcessGroup], Any],
    world: int,
    faults: Optional[Sequence[FaultEvent]] = None,
    step: Optional[int] = None,
) -> DistributedRunResult:
    """Run ``fn`` on ``world`` rank-threads over one rendezvous."""
    rendezvous = _Rendezvous(world)
    schedule = FaultSchedule(list(faults)) if faults else None
    groups = [
        SimProcessGroup(r, world, rendezvous, schedule, step)
        for r in range(world)
    ]
    values: List[Any] = [None] * world
    errors: List[Optional[str]] = [None] * world

    def body(rank: int) -> None:
        try:
            values[rank] = fn(groups[rank])
        except BaseException as exc:  # noqa: BLE001 - reported as WorkerFailure
            errors[rank] = f"{type(exc).__name__}: {exc}"
            rendezvous.barrier.abort()

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=body, args=(r,), daemon=True)
        for r in range(world)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    failed = [r for r, e in enumerate(errors) if e is not None]
    if failed:
        raise WorkerFailure(failed, "error", "; ".join(errors[r] for r in failed))
    return DistributedRunResult(
        backend="sim",
        world=world,
        values=values,
        wait_s_per_rank=[g.wait_s for g in groups],
        elapsed_s=elapsed,
    )
