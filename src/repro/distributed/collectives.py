"""Reference collectives with communication-volume accounting.

The paper trains on 8 GPUs with data parallelism plus 8-way expert model
parallelism (§6.1).  :func:`all_reduce` and :func:`all_to_all` compute
those collectives in process (numpy in, numpy out) while logging the
exact bytes each rank sends, so the cost model's communication terms can
be validated against the volumes the real algorithms would move.  They
are pure functions: the ``"sim"`` rendezvous computes through them and
the tests compare both transports against them, while faults and tracer
spans belong to the process group that runs a collective
(:mod:`repro.distributed.backend`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.distributed.backend import ProcessGroup


@dataclass
class CommRecord:
    """One collective: operation name and per-rank bytes sent.

    ``bytes_sent_per_rank`` is the *mean* bytes a rank sends in this
    collective — the honest per-rank volume even when token routing is
    skewed.  For skew-sensitive collectives (``all_to_all``) the true
    per-source breakdown is kept in ``bytes_by_rank`` and the straggler's
    volume in ``max_bytes_sent`` (what a latency model should price,
    since the collective completes when the busiest sender finishes).
    Symmetric collectives leave ``bytes_by_rank`` as ``None`` — every
    rank sends exactly ``bytes_sent_per_rank``.
    """

    op: str
    world: int
    bytes_sent_per_rank: float
    bytes_by_rank: Optional[List[float]] = None
    max_bytes_sent: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_bytes_sent is None:
            self.max_bytes_sent = float(self.bytes_sent_per_rank)


@dataclass
class CommLog:
    """Accumulates collective traffic for a simulated run."""

    records: List[CommRecord] = field(default_factory=list)

    def log(
        self,
        op: str,
        world: int,
        bytes_sent_per_rank: float,
        bytes_by_rank: Optional[Sequence[float]] = None,
        max_bytes_sent: Optional[float] = None,
    ) -> None:
        self.records.append(
            CommRecord(
                op,
                world,
                bytes_sent_per_rank,
                list(bytes_by_rank) if bytes_by_rank is not None else None,
                max_bytes_sent,
            )
        )

    def total_bytes_per_rank(self, op: str = "") -> float:
        """Mean bytes sent per rank, summed over matching records."""
        return sum(
            r.bytes_sent_per_rank
            for r in self.records
            if not op or r.op == op
        )

    def max_bytes_per_rank(self, op: str = "") -> float:
        """Straggler volume: max-sender bytes summed over records."""
        return sum(
            float(r.max_bytes_sent)
            for r in self.records
            if not op or r.op == op
        )

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            out[r.op] = out.get(r.op, 0) + 1
        return out


def all_reduce(
    shards: Sequence[np.ndarray], log: Optional[CommLog] = None
) -> List[np.ndarray]:
    """Sum the per-rank arrays; every rank receives the total.

    Ring algorithm traffic: each rank sends ``2*(w-1)/w`` of its buffer.
    """
    world = len(shards)
    total = ProcessGroup._reduce_sum(shards)
    log_all_reduce(shards[0].nbytes, world, log)
    return [total.copy() for _ in range(world)]


def log_all_reduce(nbytes: int, world: int, log: Optional[CommLog]) -> None:
    """Record one ring all-reduce of an ``nbytes`` buffer into ``log``
    — what :func:`all_reduce` charges, for callers whose reduction runs
    over a :class:`~repro.distributed.backend.ProcessGroup` instead."""
    if log is not None and world > 1:
        log.log("all_reduce", world, 2.0 * (world - 1) / world * nbytes)


def log_all_to_all(
    buffers: Sequence[Sequence[np.ndarray]], log: Optional[CommLog]
) -> None:
    """Record one logical all-to-all's volume into ``log``.

    Factored out of :func:`all_to_all` so retry wrappers (e.g.
    ``ExpertParallelDMoE._exchange``) can account each *logical*
    exchange exactly once, however many transport attempts it took.
    Stores true mean per-rank bytes plus the per-source breakdown and
    the straggler's (max-sender) volume — skewed token routing no
    longer inflates the per-rank number.
    """
    world = len(buffers)
    if log is None or world <= 1:
        return
    by_rank = [
        float(
            sum(buffers[src][dst].nbytes for dst in range(world) if dst != src)
        )
        for src in range(world)
    ]
    log.log(
        "all_to_all",
        world,
        float(np.mean(by_rank)),
        bytes_by_rank=by_rank,
        max_bytes_sent=float(max(by_rank)),
    )


def all_to_all(
    buffers: Sequence[Sequence[np.ndarray]], log: Optional[CommLog] = None
) -> List[List[np.ndarray]]:
    """Exchange ``buffers[src][dst]`` so rank ``dst`` receives a list
    indexed by ``src`` — the token-dispatch primitive of expert parallelism.
    """
    world = len(buffers)
    for row in buffers:
        if len(row) != world:
            raise ValueError("all_to_all requires a square buffer grid")

    log_all_to_all(buffers, log)
    return [
        [np.array(buffers[src][dst], copy=True) for src in range(world)]
        for dst in range(world)
    ]

