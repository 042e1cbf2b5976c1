"""What the calling thread runs: one :class:`Execution` record per thread.

``sim`` ranks are threads of one process, so where an op's buffers come
from, whether it records a tape node or a capture, and whether the MoE
layers serve are decided per thread.  The record sits in a ``ContextVar``
whose default is a reference record that is never written: a thread
that never entered a scope runs the eager reference.  A thread installs
its own record the first time it enters one (:func:`mine`); a scope sets
a field and restores it on exit.  Two states stepped on one thread share
its record and pool, as malloc's per-thread arenas are shared.
"""

from __future__ import annotations

from contextvars import ContextVar


class Execution:
    """One thread's execution state."""

    __slots__ = ("pool", "arena", "capture", "grad", "inference", "norm_scratch")

    def __init__(self) -> None:
        #: The thread's ``BufferArena``, made by ``arena.get_arena``.
        self.pool = None
        #: Where steady buffers come from: ``None`` (NumPy allocates), the
        #: pool (inside ``steady_state()``), or a replay's buffer plan.
        self.arena = None
        #: The ``CaptureSession`` recording this thread's ops.
        self.capture = None
        self.grad = True
        self.inference = False
        #: ``grad_norm``'s fp64 staging buffer.
        self.norm_scratch = None


_REFERENCE = Execution()
_RECORD: ContextVar[Execution] = ContextVar("repro_execution", default=_REFERENCE)

#: The calling thread's record: one C call, the hot paths' only read.
current = _RECORD.get


def mine() -> Execution:
    """The calling thread's own record, installed on first use."""
    ex = current()
    if ex is _REFERENCE:
        ex = Execution()
        _RECORD.set(ex)
    return ex
