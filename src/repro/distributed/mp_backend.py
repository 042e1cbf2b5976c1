"""Real multi-process backend: forked ranks, pipe mesh, shm payloads.

Each rank is a forked OS process.  Control messages (tiny pickled
headers) travel over a full mesh of one-way pipes; tensor payloads
above the inline threshold travel through ``multiprocessing.shared_
memory`` segments (:mod:`repro.distributed.shm`) so pipe buffers can
never deadlock.  Collectives are genuinely point-to-point: an
all-to-all is ``world - 1`` pairwise rounds (``dst = (rank + k) %
world``); an all-reduce publishes this rank's contribution in its
lifetime-mapped window, reads the peers' windows in place and sums
them with the shared ``_reduce_sum`` formula — the same reduction, in
the same rank order, as the ``"sim"`` backend, so the two are
bit-identical.

The asynchronous all-to-all (:meth:`MpProcessGroup.isend_all_to_all`)
posts all sends immediately and defers the receives to
:meth:`~_MpPending.wait`; local work scheduled between the two
overlaps with peers still producing their sends.  ``wait_s``
accumulates the time a rank spends *blocked* polling for remote data
— the exposed communication cost that overlap exists to shrink.

Failure is real here: a scheduled ``rank_failure`` SIGKILLs the
worker.  Peers detect the death through recv deadlines
(``op_timeout_s``) or pipe EOF; the supervising parent notices the
dead result pipe, kills the survivors, sweeps the session's shared
memory, and raises :class:`WorkerFailure`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.distributed import shm
from repro.distributed.backend import (
    DistributedRunResult,
    FaultSite,
    PendingAllToAll,
    ProcessGroup,
    WorkerFailure,
    bucket_cuts,
)
from repro.distributed.collectives import log_all_reduce
from repro.observability.tracing import span
from repro.resilience.faults import CollectiveFault, FaultEvent, FaultSchedule

_POLL_GRANULARITY_S = 0.002


def _fork_context():
    """The mp backend requires fork (callables need not be picklable)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        raise WorkerFailure(
            [], "error", "mp backend requires the fork start method"
        ) from None


class _MpPending(PendingAllToAll):
    def __init__(self, group: "MpProcessGroup", self_payload: np.ndarray) -> None:
        self._group = group
        self._self = self_payload

    @property
    def self_payload(self) -> np.ndarray:
        return self._self

    def wait(self) -> List[np.ndarray]:
        g = self._group
        received: List[Optional[np.ndarray]] = [None] * g.world
        received[g.rank] = self._self
        for k in range(1, g.world):
            src = (g.rank - k) % g.world
            received[src] = g._recv_from(src, "all_to_all")
        return received  # type: ignore[return-value]


class MpProcessGroup(ProcessGroup):
    """Per-rank communicator living inside one forked worker."""

    def __init__(
        self,
        rank: int,
        world: int,
        send_conns: List[Optional[Any]],
        recv_conns: List[Optional[Any]],
        session: str,
        op_timeout_s: float = 30.0,
        schedule: Optional[FaultSchedule] = None,
        step: Optional[int] = None,
    ) -> None:
        self.rank = rank
        self.world = world
        self.wait_s = 0.0
        self.session = session
        self.op_timeout_s = op_timeout_s
        self._send = send_conns
        self._recv = recv_conns
        self._schedule = schedule
        self._step = step
        #: This rank's all_reduce window and its mappings of the peers'.
        self.window = shm.Window(session, rank)
        self.peers = shm.WindowReader()

    def close(self) -> None:
        """Unlink this rank's window, unmap the peers'."""
        self.window.close()
        self.peers.close()

    # -- point-to-point ------------------------------------------------
    def _send_header(self, dst: int, header: Any, op: str) -> None:
        try:
            self._send[dst].send(header)
        except ConnectionError:
            raise CollectiveFault(
                op, self._step, 0, detail=f"rank {dst} died (broken pipe)"
            ) from None

    def _recv_header(self, src: int, op: str) -> Any:
        conn = self._recv[src]
        t0 = time.perf_counter()
        deadline = t0 + self.op_timeout_s
        while not conn.poll(_POLL_GRANULARITY_S):
            if time.perf_counter() > deadline:
                self.wait_s += time.perf_counter() - t0
                raise CollectiveFault(
                    op,
                    self._step,
                    0,
                    detail=f"rank {self.rank}: recv from rank {src} timed "
                    f"out after {self.op_timeout_s}s (peer dead?)",
                )
        self.wait_s += time.perf_counter() - t0
        try:
            return conn.recv()
        except (EOFError, ConnectionError):
            raise CollectiveFault(
                op, self._step, 0, detail=f"rank {src} died (pipe EOF)"
            ) from None

    def _post(self, dst: int, arr: np.ndarray, op: str = "send") -> None:
        self._send_header(
            dst, shm.encode_array(np.asarray(arr), self.session), op
        )

    def _recv_from(self, src: int, op: str) -> np.ndarray:
        return shm.decode_array(self._recv_header(src, op))

    def _die(self, op: str, rank: Optional[int]) -> None:
        os.kill(os.getpid(), signal.SIGKILL)  # a real dead rank

    # -- collectives ---------------------------------------------------
    def isend_all_to_all(self, send: Sequence[np.ndarray]) -> PendingAllToAll:
        send = self._faulted_sends(send)
        for k in range(1, self.world):
            dst = (self.rank + k) % self.world
            self._post(dst, send[dst], "all_to_all")
        return _MpPending(self, np.array(send[self.rank], copy=True))

    def all_to_all(self, send: Sequence[np.ndarray]) -> List[np.ndarray]:
        return self.isend_all_to_all(send).wait()

    def all_gather(self, arr: np.ndarray) -> List[np.ndarray]:
        (arr,) = self._maybe_fault("all_gather", [np.asarray(arr)])
        for k in range(1, self.world):
            self._post((self.rank + k) % self.world, arr, "all_gather")
        parts: List[Optional[np.ndarray]] = [None] * self.world
        parts[self.rank] = arr.copy()
        for k in range(1, self.world):
            src = (self.rank - k) % self.world
            parts[src] = self._recv_from(src, "all_gather")
        return parts  # type: ignore[return-value]

    def all_reduce(self, arr: np.ndarray) -> np.ndarray:
        (arr,) = self._maybe_fault("all_reduce", [np.asarray(arr)])
        ring = [(self.rank + k) % self.world for k in range(1, self.world)]
        if ring:
            self.window.reserve(arr.nbytes)
            self.window.view(arr.dtype, arr.shape)[...] = arr
        for dst in ring:
            self._send_header(dst, self.window.name, "all_reduce")
        parts: List[Optional[np.ndarray]] = [None] * self.world
        parts[self.rank] = arr
        for src in reversed(ring):
            name = self._recv_header(src, "all_reduce")
            parts[src] = self.peers.view(src, name, arr.dtype, arr.shape)
        # Rank-ordered sum straight out of the windows: byte-identical
        # to the sim backend and the in-process reference collectives.
        total = self._reduce_sum(parts)
        del parts
        # No rank may write its window again (the next all_reduce)
        # before every peer has finished reading it.
        for dst in ring:
            self._send_header(dst, "read", "all_reduce")
        for src in reversed(ring):
            self._recv_header(src, "all_reduce")
        return total

    def broadcast(self, arr: np.ndarray, root: int = 0) -> np.ndarray:
        (arr,) = self._maybe_fault("broadcast", [np.asarray(arr)])
        if self.rank == root:
            for dst in range(self.world):
                if dst != root:
                    self._post(dst, arr, "broadcast")
            return arr.copy()
        return self._recv_from(root, "broadcast")

    def barrier(self) -> None:
        self.all_gather(np.zeros(1))


# ----------------------------------------------------------------------
# Persistent echo workers: the data-parallel seam for long-lived
# trainers.
# ----------------------------------------------------------------------
def _echo_worker(conn, session: str, rank: int) -> None:
    """Hold one data-parallel rank's end of the gradient exchange: read
    every byte of rank 0's window into this rank's own and name it in
    the reply.  The bytes move through a real process and real shared
    memory — so timeouts, kills, and pipe failures behave like
    production — while the reduction (which needs every shard) stays
    with the caller.  Rank 0 does not write its window again before the
    reply, nor read this one after the next request."""
    window, reader = shm.Window(session, rank), shm.WindowReader()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request == "stop":
            break
        seq, name, nbytes = request
        window.reserve(nbytes)
        np.copyto(
            window.view(np.uint8, nbytes),
            reader.view(0, name, np.uint8, nbytes),
        )
        try:
            conn.send((seq, window.name))
        except OSError:
            break
    reader.close()
    window.close()
    os._exit(0)


class MpEchoGroup(FaultSite):
    """``world - 1`` persistent forked peers for the per-step all-reduce.

    Unlike :func:`run_mp` (which forks per invocation), these workers
    live as long as the trainer, and so do the shared-memory windows
    the gradient bucket moves through (:class:`~repro.distributed.shm
    .Window`): rank 0's scaled contribution is written once into its
    window, every worker copies it into its own, and the windows reduce
    with the shared rank-ordered formula straight into the caller's
    arrays — bit-identical to the in-process reference ``all_reduce``,
    with no segment created, attached or unlinked in a steady-state
    step.

    Chaos seams are real: :meth:`kill_rank` (and a scheduled
    ``rank_failure``) SIGKILLs a worker, the next exchange fails into
    :class:`CollectiveFault` (the trainer's skip-step path), and
    :meth:`heal` respawns the dead so training continues.
    """

    def __init__(
        self,
        world: int,
        op_timeout_s: float = 10.0,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        if world < 2:
            raise ValueError(f"MpEchoGroup needs world >= 2, got {world}")
        self.world = world
        self._schedule = schedule
        self._span_args = {"world": world}
        self.session = shm.session_name()
        self._ctx = _fork_context()
        self._conns: List[Optional[Any]] = [None] * world  # rank 0 = local
        self._procs: List[Optional[Any]] = [None] * world
        # Rank 0's end of the exchange: the point-to-point transport and
        # the window of a full group, over the duplex pipes (respawns
        # replace entries of the shared list in place).
        self._link = MpProcessGroup(
            0, world, self._conns, self._conns, self.session, op_timeout_s
        )
        #: Exchanges started; a reply must name the one it answers.
        self._seq = 0
        for rank in range(1, world):
            self._spawn(rank)

    def _spawn(self, rank: int) -> None:
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_echo_worker,
            args=(child_end, self.session, rank),
            daemon=True,
        )
        proc.start()
        child_end.close()
        self._conns[rank] = parent_end
        self._procs[rank] = proc

    @property
    def alive(self) -> List[bool]:
        return [True] + [
            bool(p is not None and p.is_alive()) for p in self._procs[1:]
        ]

    def kill_rank(self, rank: int) -> None:
        """A real dead rank: SIGKILL worker ``rank`` (1-based peers)."""
        if not 1 <= rank < self.world:
            raise ValueError(f"can only kill peer ranks 1..{self.world - 1}")
        proc = self._procs[rank]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)

    def _die(self, op: str, rank: Optional[int]) -> None:
        self.kill_rank(1 if rank is None else rank)

    def heal(self) -> List[int]:
        """Respawn every dead worker; returns the ranks respawned."""
        healed = []
        for rank in range(1, self.world):
            proc = self._procs[rank]
            if proc is None or not proc.is_alive():
                if proc is not None:
                    proc.join(timeout=1.0)
                if self._conns[rank] is not None:
                    self._conns[rank].close()
                # A killed worker never unlinked its window: unlink that
                # one — the survivors' and rank 0's own are live — and
                # forget the mapping, since the respawned rank starts its
                # window names over.
                self._link.peers.drop(rank)
                shm.sweep_session(shm.window_prefix(self.session, rank))
                self._spawn(rank)
                healed.append(rank)
        return healed

    def all_reduce_bucket(
        self,
        arrays: Sequence[np.ndarray],
        scale: float = 1.0,
        log=None,
        step: Optional[int] = None,
    ) -> None:
        """Overwrite each of ``arrays`` with its slice of the total over
        ``world`` ranks of the bucket ``[a * scale for a in arrays]`` —
        the in-process reference ``all_reduce`` over ``world`` identical
        buckets, bit for bit, with the same ``CommLog`` record.

        This rank's bytes are read once and written once to be scaled
        into its window; every peer copies that window into its own;
        the rank-ordered sum reads the windows and writes the arrays.
        The sum starts only after every peer has answered, so a
        :class:`CollectiveFault` leaves every array untouched."""
        if not arrays:
            return
        cuts, dtype = bucket_cuts(arrays), arrays[0].dtype
        nbytes = cuts[-1] * dtype.itemsize
        link, op = self._link, "all_reduce"
        with span(op, self._span_args):
            self._step = link._step = step
            sent = self._maybe_fault(op, arrays)
            link.window.reserve(nbytes)
            flats = [link.window.view(dtype, cuts[-1])]
            for a, lo, hi in zip(sent, cuts, cuts[1:]):
                np.multiply(a, float(scale), out=flats[0][lo:hi].reshape(a.shape))
            self._seq += 1
            for rank in range(1, self.world):
                link._send_header(rank, (self._seq, link.window.name, nbytes), op)
                # A reply to an exchange that was abandoned on a timeout
                # may still arrive; it answers nothing.
                seq, name = link._recv_header(rank, op)
                while seq != self._seq:
                    seq, name = link._recv_header(rank, op)
                flats.append(link.peers.view(rank, name, dtype, cuts[-1]))
            for a, lo, hi in zip(arrays, cuts, cuts[1:]):
                ProcessGroup._reduce_sum(
                    [flat[lo:hi].reshape(a.shape) for flat in flats], out=a
                )
        log_all_reduce(sum(a.nbytes for a in arrays), self.world, log)

    def close(self) -> None:
        for rank in range(1, self.world):
            conn, proc = self._conns[rank], self._procs[rank]
            if conn is not None:
                try:
                    if proc is not None and proc.is_alive():
                        conn.send("stop")
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
                self._conns[rank] = None
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.kill()
                    proc.join(timeout=5.0)
                self._procs[rank] = None
        self._link.close()
        shm.sweep_session(self.session)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Worker + supervisor
# ----------------------------------------------------------------------
def _ship_result(conn, session: str, msg: tuple) -> None:
    """Send an arbitrary result object without risking pipe-buffer
    deadlock: pickle it, wrap the bytes as a uint8 array, and reuse the
    shm transport (inline when small, segment when large)."""
    payload = np.frombuffer(pickle.dumps(msg), dtype=np.uint8)
    conn.send(shm.encode_array(payload, session))


def _unship_result(header) -> tuple:
    return pickle.loads(shm.decode_array(header).tobytes())


def _worker(
    fn,
    rank: int,
    world: int,
    send_matrix,
    recv_matrix,
    result_conns,
    session: str,
    op_timeout_s: float,
    events: Optional[List[FaultEvent]],
    step: Optional[int],
) -> None:
    # Close every inherited pipe end this rank does not own, so a dead
    # peer's pipes hit EOF instead of hanging until the recv deadline.
    for src in range(world):
        for dst in range(world):
            if src == dst:
                continue
            if src != rank:
                send_matrix[src][dst].close()
            if dst != rank:
                recv_matrix[dst][src].close()
    for r, conn in enumerate(result_conns):
        if r != rank:
            conn.close()

    schedule = FaultSchedule(list(events)) if events else None
    group = MpProcessGroup(
        rank,
        world,
        send_matrix[rank],
        recv_matrix[rank],
        session,
        op_timeout_s,
        schedule,
        step,
    )
    try:
        value = fn(group)
        msg = ("ok", rank, value, group.wait_s)
    except BaseException:  # noqa: BLE001 - full traceback to supervisor
        msg = ("err", rank, traceback.format_exc(), group.wait_s)
    try:
        group.close()
        _ship_result(result_conns[rank], session, msg)
        result_conns[rank].close()
    finally:
        os._exit(0)  # skip atexit/resource-tracker teardown in the child


def run_mp(
    fn: Callable[[ProcessGroup], Any],
    world: int,
    timeout_s: float = 120.0,
    op_timeout_s: float = 30.0,
    faults: Optional[Sequence[FaultEvent]] = None,
    step: Optional[int] = None,
) -> DistributedRunResult:
    """Fork ``world`` workers, supervise them, and collect results.

    Always sweeps the session's shared-memory segments on the way out —
    killed receivers cannot unlink what they never read.
    """
    ctx = _fork_context()
    session = shm.session_name()

    send_matrix: List[List[Optional[Any]]] = [
        [None] * world for _ in range(world)
    ]
    recv_matrix: List[List[Optional[Any]]] = [
        [None] * world for _ in range(world)
    ]
    for src in range(world):
        for dst in range(world):
            if src == dst:
                continue
            r_end, s_end = ctx.Pipe(duplex=False)
            recv_matrix[dst][src] = r_end
            send_matrix[src][dst] = s_end
    parent_results = []
    child_results = []
    for _ in range(world):
        r_end, s_end = ctx.Pipe(duplex=False)
        parent_results.append(r_end)
        child_results.append(s_end)

    events = list(faults) if faults else None
    procs = [
        ctx.Process(
            target=_worker,
            args=(
                fn,
                rank,
                world,
                send_matrix,
                recv_matrix,
                child_results,
                session,
                op_timeout_s,
                events,
                step,
            ),
            daemon=True,
        )
        for rank in range(world)
    ]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    # Parent owns none of the data plane: close its copies so EOF
    # propagation works and fds do not accumulate.
    for src in range(world):
        for dst in range(world):
            if src != dst:
                send_matrix[src][dst].close()
                recv_matrix[dst][src].close()
    for conn in child_results:
        conn.close()

    outcomes: Dict[int, tuple] = {}
    failed: Dict[int, str] = {}
    pending = set(range(world))
    deadline = t0 + timeout_s
    try:
        while pending:
            now = time.perf_counter()
            if now > deadline:
                for rank in pending:
                    failed.setdefault(rank, "timeout")
                break
            for rank in sorted(pending):
                conn = parent_results[rank]
                if conn.poll(0.01):
                    try:
                        outcomes[rank] = _unship_result(conn.recv())
                    except EOFError:
                        failed[rank] = "died"
                    pending.discard(rank)
                elif not procs[rank].is_alive():
                    # One final poll: the result may have been written
                    # just before exit.
                    if conn.poll(0):
                        try:
                            outcomes[rank] = _unship_result(conn.recv())
                        except EOFError:
                            failed[rank] = "died"
                    else:
                        failed[rank] = "died"
                    pending.discard(rank)
            if failed and pending:
                # A dead rank stalls its peers until their recv
                # deadline; no reason to wait longer than that.
                deadline = min(deadline, time.perf_counter() + op_timeout_s + 2.0)
        elapsed = time.perf_counter() - t0
    finally:
        for p in procs:
            if p.is_alive():
                p.kill()
        for p in procs:
            p.join(timeout=5.0)
        for conn in parent_results:
            conn.close()
        shm.sweep_session(session)

    for rank, msg in outcomes.items():
        if msg[0] == "err":
            failed.setdefault(rank, "error")
    if failed:
        details = []
        for rank in sorted(failed):
            msg = outcomes.get(rank)
            if msg is not None and msg[0] == "err":
                details.append(f"rank {rank}: {msg[2].strip().splitlines()[-1]}")
        reason = next(iter(sorted(set(failed.values()))))
        raise WorkerFailure(sorted(failed), reason, "; ".join(details))

    values = [outcomes[r][2] for r in range(world)]
    waits = [float(outcomes[r][3]) for r in range(world)]
    return DistributedRunResult(
        backend="mp",
        world=world,
        values=values,
        wait_s_per_rank=waits,
        elapsed_s=elapsed,
        extras={"session": session},
    )
