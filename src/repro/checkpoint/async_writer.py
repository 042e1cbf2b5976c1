"""Async background checkpoint writer: snapshot now, serialize later.

The synchronous save path stalls the training step for the full
serialize+fsync cost.  The async writer splits that in two:

1. **Snapshot (step boundary, caller's thread)** — the trainer captures
   a :class:`CheckpointState` with ``copy=True``: a plain memcpy of
   params/moments/RNG state into staging buffers, the same in-memory
   snapshot discipline the PR 2 guardrail rewind uses.  From this point
   the checkpoint content is frozen — later training steps, guardrail
   rewinds, even a checkpoint *restore* cannot race with the write.
2. **Serialize + fsync (worker thread)** — :meth:`submit` enqueues the
   snapshot; a single daemon worker funnels it through the *same*
   :func:`repro.checkpoint.write_state` serializer as the sync
   path, so async and sync checkpoints are byte-identical.

Robustness properties:

- **Bounded queue / backpressure** — the queue holds ``queue_size``
  pending snapshots; a faster-than-disk producer blocks in
  :meth:`submit` (counted in ``ckpt/backpressure_waits`` and timed into
  ``ckpt/backpressure_wait_time``) instead of accumulating unbounded
  staging memory.
- **Failure surfacing** — a failed write increments
  ``ckpt/async_write_failures`` in the metrics registry, stores the
  exception on :attr:`last_error`, and logs it; the run keeps training (a checkpoint
  that failed to write is strictly better than a crashed job), and the
  torn directory it may leave behind is skipped by ``load_latest``.
- **Fault injection** — ``submit(fault_hook=...)`` threads the chaos
  suite's hook into the shard writer so a test can kill a write
  mid-shard *on the worker thread* and prove recovery end to end.

``CheckpointManager`` registration (rotation, best tracking) happens on
the worker thread after a successful publish, keeping the manager's
view consistent with the disk; callers read the manager only after
:meth:`drain`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.checkpoint.common import CheckpointError, CheckpointState, logger
from repro.checkpoint.sharded import write_state


def _registry():
    from repro.observability.metrics import registry

    return registry()


@dataclass
class _Job:
    path: str
    state: CheckpointState
    step: Optional[int]
    metric: Optional[float]
    manager: Optional[Any]
    fault_hook: Optional[Callable[[str], None]]


class AsyncCheckpointWriter:
    """Single background thread draining a bounded checkpoint queue."""

    def __init__(self, queue_size: int = 2) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue(
            maxsize=queue_size
        )
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        #: Exception from the most recent failed write, if any.
        self.last_error: Optional[BaseException] = None
        #: Path of the most recent failed write, if any.
        self.last_error_path: Optional[str] = None
        self.submitted = 0
        self.written = 0
        self.failed = 0
        #: Thread ident of the worker (tests assert writes really happen
        #: off the training thread).
        self.worker_ident: Optional[int] = None

    # ------------------------------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._worker, name="ckpt-writer", daemon=True
            )
            self._thread.start()

    def submit(
        self,
        path: str,
        state: CheckpointState,
        step: Optional[int] = None,
        metric: Optional[float] = None,
        manager: Optional[Any] = None,
        fault_hook: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Enqueue one snapshot for background serialization.

        ``state`` must already be a step-boundary snapshot (arrays
        copied); the caller must not mutate it after submitting.  Blocks
        when the bounded queue is full — that backpressure is the memory
        ceiling.
        """
        if self._closed:
            raise CheckpointError("AsyncCheckpointWriter is closed")
        self._ensure_thread()
        job = _Job(path, state, step, metric, manager, fault_hook)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            reg = _registry()
            reg.counter("ckpt/backpressure_waits").inc()
            t0 = time.perf_counter()
            self._queue.put(job)
            reg.histogram("ckpt/backpressure_wait_time").observe(
                time.perf_counter() - t0
            )
        self.submitted += 1
        _registry().counter("ckpt/async_submits").inc()

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        self.worker_ident = threading.get_ident()
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                self._write(job)
            finally:
                self._queue.task_done()

    def _write(self, job: _Job) -> None:
        reg = _registry()
        t0 = time.perf_counter()
        try:
            write_state(job.path, job.state, fault_hook=job.fault_hook)
            if job.manager is not None:
                job.manager.register(job.step, job.metric)
        except Exception as exc:  # surfaced, never fatal to training
            self.failed += 1
            self.last_error = exc
            self.last_error_path = job.path
            reg.counter("ckpt/async_write_failures").inc()
            logger.warning(
                "async checkpoint write to %s failed: %s", job.path, exc
            )
            return
        self.written += 1
        reg.counter("ckpt/async_writes").inc()
        reg.histogram("ckpt/write_time").observe(time.perf_counter() - t0)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Snapshots accepted but not yet written (approximate)."""
        return self.submitted - self.written - self.failed

    def drain(self) -> None:
        """Block until every submitted snapshot is written (or failed)."""
        self._queue.join()

    def check(self) -> None:
        """Raise the most recent write failure, if any (then clear it)."""
        if self.last_error is not None:
            exc, path = self.last_error, self.last_error_path
            self.last_error = self.last_error_path = None
            raise CheckpointError(
                f"async checkpoint write to {path!r} failed"
            ) from exc

    def close(self) -> None:
        """Drain, stop the worker, and refuse further submissions."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None and self._thread.is_alive():
            self._queue.join()
            self._queue.put(None)
            self._queue.join()
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "AsyncCheckpointWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
