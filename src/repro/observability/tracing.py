"""Hierarchical span tracing for the training hot paths.

A :class:`Tracer` records *spans* — named, nested wall-clock intervals —
from the hooks threaded through the trainer, the MoE layers, the sparse
kernel dispatch, and the trainer's data-parallel gradient exchange
(either transport).  Span paths compose by nesting: a ``span("sdd")``
opened while ``step → forward → moe`` are on the stack records the path
``step/forward/moe/sdd``, so one trace answers both "how long was the
step" and "which kernel inside which layer ate it" — the per-phase
breakdown the paper's evaluation (Figs 7–9, §6) is built on.

Zero overhead when disabled
---------------------------
No tracer is installed by default.  Every hook goes through
:func:`span`, which, with no tracer installed, performs one module-level
load, one ``is None`` test, and returns a shared no-op context manager —
no allocation, no clock read.  ``tests/observability/test_tracing.py``
asserts the disabled path allocates nothing per step.

Typical use::

    from repro.observability import Tracer, tracing, save_chrome_trace

    with tracing() as tracer:
        trainer.train()
    save_chrome_trace("trace.json", tracer)      # chrome://tracing
    print(tracer and step_table(tracer))         # plain-text breakdown

Each thread nests its own spans: a tracer keeps one open-span stack
per thread and one shared list of closed spans, each tagged with the
name of the thread that opened it — so the threads of a ``sim``
process group (named ``rank0``, ``rank1``, …) trace side by side, and
a single-threaded trace is what it always was.

Tracing reads :func:`time.perf_counter` only — it never touches RNG
state or tensor data, so traced and untraced runs are bit-identical
(asserted by ``tests/integration/test_trace_smoke.py``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple


class Span:
    """One completed (or open) named interval.

    ``path`` is the slash-joined chain of enclosing span names
    (``step/forward/moe/sdd``); ``depth`` its nesting level; ``start`` /
    ``end`` are :func:`time.perf_counter` readings; ``args`` optional
    structured payload (exported into the Chrome trace's ``args``);
    ``thread`` the name of the thread that opened it.
    """

    __slots__ = ("name", "path", "depth", "start", "end", "args", "thread")

    def __init__(
        self,
        name: str,
        path: str,
        depth: int,
        start: float,
        args: Optional[dict] = None,
        thread: str = "",
    ) -> None:
        self.name = name
        self.path = path
        self.depth = depth
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        self.thread = thread

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.path!r}, {self.duration * 1e3:.3f}ms)"


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager opening/closing one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_args", "_span")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[dict]) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> Span:
        self._span = self._tracer.open(self._name, self._args)
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer.close(self._span)
        return False


class Tracer:
    """Collects spans and counter-track samples.

    Spans are appended to :attr:`spans` in *close* order, so a parent
    always follows its children — exporters and breakdown queries rely
    on this.  Each thread's open-span stack enforces strict nesting
    within that thread; unbalanced exits raise immediately rather than
    corrupting the trace.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.epoch: float = clock()
        self.spans: List[Span] = []
        self._local = threading.local()
        #: timestamped counter-track samples for Chrome "C" events.
        self.counter_samples: List[Tuple[float, str, float]] = []

    # -- recording ------------------------------------------------------
    def span(self, name: str, args: Optional[dict] = None) -> _SpanContext:
        """Context manager recording one nested span."""
        return _SpanContext(self, name, args)

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's open spans, innermost last."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.thread = threading.current_thread().name
            stack = self._local.stack = []
            return stack

    def open(self, name: str, args: Optional[dict] = None) -> Span:
        stack = self._stack
        parent = stack[-1] if stack else None
        path = f"{parent.path}/{name}" if parent is not None else name
        span = Span(name, path, len(stack), self.clock(), args, self._local.thread)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"unbalanced span exit: closing {span.path!r} but the "
                f"innermost open span is "
                f"{stack[-1].path if stack else None!r}"
            )
        stack.pop()
        span.end = self.clock()
        self.spans.append(span)

    def sample(self, name: str, value: float) -> None:
        """Record one timestamped counter sample (Chrome ``C`` event)."""
        self.counter_samples.append((self.clock(), name, float(value)))

    # -- queries --------------------------------------------------------
    def last_root(self, name: str) -> Optional[Span]:
        """Most recently closed depth-0 span called ``name``."""
        for span in reversed(self.spans):
            if span.depth == 0 and span.name == name:
                return span
        return None

    def roots(self, name: Optional[str] = None) -> List[Span]:
        """All closed depth-0 spans (optionally filtered by name)."""
        return [
            s
            for s in self.spans
            if s.depth == 0 and (name is None or s.name == name)
        ]

    def children(self, parent: Span) -> List[Span]:
        """Direct children of a closed span, in close order (on the
        parent's thread)."""
        prefix = parent.path + "/"
        return [
            s
            for s in self.spans
            if s.depth == parent.depth + 1
            and s.thread == parent.thread
            and s.path.startswith(prefix)
            and s.start >= parent.start
            and s.end is not None
            and parent.end is not None
            and s.end <= parent.end
        ]

    def breakdown(self, parent: Span) -> Dict[str, float]:
        """Total seconds per direct-child name under ``parent``."""
        out: Dict[str, float] = {}
        for child in self.children(parent):
            out[child.name] = out.get(child.name, 0.0) + child.duration
        return out

    def total(self, path: str) -> float:
        """Summed duration of every closed span with exactly this path."""
        return sum(s.duration for s in self.spans if s.path == path)

    def reset(self) -> None:
        """Drop all recorded data (open spans survive — don't reset
        mid-step on the calling thread)."""
        if self._stack:
            raise RuntimeError(
                f"cannot reset tracer with {len(self._stack)} open span(s)"
            )
        self.spans.clear()
        self.counter_samples.clear()
        self.epoch = self.clock()


# ----------------------------------------------------------------------
# Process-global tracer (mirrors the fault hook in
# repro.distributed.collectives: one module global, one None check on
# the disabled path).
# ----------------------------------------------------------------------
_TRACER: Optional[Tracer] = None


def set_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or clear, with ``None``) the process-wide tracer."""
    global _TRACER
    _TRACER = tracer


def get_tracer() -> Optional[Tracer]:
    return _TRACER


def span(name: str, args: Optional[dict] = None):
    """Record a span on the installed tracer; no-op when none is.

    The disabled path is one global load, one ``is None`` test, and a
    shared singleton return — no allocation.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, args)


@contextmanager
def tracing(tracer: Optional[Tracer] = None):
    """Install a tracer for the block; yields it; restores the previous
    tracer (tracers do not nest — the inner one simply wins)."""
    own = tracer if tracer is not None else Tracer()
    previous = _TRACER
    set_tracer(own)
    try:
        yield own
    finally:
        set_tracer(previous)
