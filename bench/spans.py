"""Bench-side span recorder for the traced run.

Spans are recorded from ``bench/`` around calls into each layer, kept in
memory, and written as Chrome-trace JSON when the run ends.  Each span
carries a name, start, end, the id of the span that caused it and the
workload operation (train step / scheduler step) it belongs to.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator, List


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int, op) -> None:
        self.name, self.start, self.end, self.parent, self.op = name, start, start, parent, op

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: Off: ``span`` yields without recording (the untraced arm of the
        #: tracing-overhead measurement).
        self.enabled = True

    @contextmanager
    def span(self, name: str, op=None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent].op
        s = Span(name, time.perf_counter(), parent, op)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    # -- queries -------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def child_time(self) -> List[float]:
        """Per span, the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return covered

    def self_times(self, name: str) -> List[float]:
        """Self time (duration minus children) of every span called ``name``."""
        covered = self.child_time()
        return [s.duration - covered[i] for i, s in enumerate(self.spans) if s.name == name]

    def coverage(self, name: str) -> float:
        """Share of the wall of spans called ``name`` covered by their children."""
        covered = self.child_time()
        total = sum(s.duration for s in self.spans if s.name == name)
        inside = sum(covered[i] for i, s in enumerate(self.spans) if s.name == name)
        return inside / total if total else 0.0

    # -- export --------------------------------------------------------
    def chrome_trace(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": s.name, "ph": "X", "pid": 0, "tid": 0,
                    "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                    "args": {"id": i, "parent": s.parent, "op": s.op},
                }
                for i, s in enumerate(self.spans)
            ],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)
