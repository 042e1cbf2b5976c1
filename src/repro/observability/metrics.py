"""Unified metrics registry: counters, gauges, histograms, one snapshot.

The registry is the one place a count is stored.  The kernel library
(:mod:`repro.sparse.stats`), the autograd engine
(:mod:`repro.autograd.stats`) and the recovery paths
(:mod:`repro.resilience.counters`) write their counts here under one
flat namespace (``sparse/sdd/grouped``, ``autograd/tape_nodes``,
``router_fallback``, ...; the table is in ``docs/observability.md``), so
one call returns everything a run recorded::

    from repro.observability import registry

    reg = registry()
    reg.counter("tokens").inc(4096)
    reg.histogram("step_time").observe(0.012)
    snap = reg.snapshot()
    snap["counters"]["tokens"]            # 4096
    snap["counters"]["sparse/sdd/grouped"]
    snap["histograms"]["step_time"]["p95"]

Hot paths resolve their :class:`Counter` once and keep the handle.
``reset()`` zeroes every instrument *in place*, so such a handle keeps
counting into the registry after it; ``snapshot()`` returns plain
values, so mutating a snapshot never touches a live instrument.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Dict, List

import numpy as np


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, by: int = 1) -> int:
        self.value += by
        return self.value


class Gauge:
    """Last-written value (e.g. current arena pool size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming value distribution with percentile summaries.

    Values are kept verbatim (runs here are thousands of steps, not
    billions of requests — exactness beats a sketch) up to ``max_samples``,
    after which uniform decimation keeps memory bounded.  ``count`` and
    ``sum`` are exact running totals either way; only the percentiles,
    ``min`` and ``max`` come from the kept samples.
    """

    __slots__ = ("values", "max_samples", "count", "sum")

    def __init__(self, max_samples: int = 65536) -> None:
        self.max_samples = max_samples
        self.clear()

    def clear(self) -> None:
        self.values: List[float] = []
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.values.append(value)
        self.count += 1
        self.sum += value
        if len(self.values) > self.max_samples:
            # Keep every other sample; percentiles stay representative.
            self.values = self.values[::2]

    def observe_all(self, values: List[float]) -> None:
        """:meth:`observe` each of ``values`` (Python floats), in order, in
        one call: the same samples, ``count`` and ``sum``."""
        kept = self.values
        if len(kept) + len(values) > self.max_samples:
            for value in values:
                self.observe(value)
            return
        kept += values
        self.count += len(values)
        self.sum = reduce(add, values, self.sum)

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` in [0, 100]; 0.0 when empty."""
        if not self.values:
            return 0.0
        return float(np.percentile(self.values, q))

    def summary(self) -> Dict[str, float]:
        """count / sum / mean / min / max / p50 / p95 / p99."""
        if not self.values:
            return {
                "count": 0, "sum": 0.0, "mean": 0.0,
                "min": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        arr = np.asarray(self.values, dtype=np.float64)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count,
            "min": float(arr.min()),
            "max": float(arr.max()),
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
        }


class MetricsRegistry:
    """Named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge()
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram()
        return inst

    # -- aggregate views --------------------------------------------------
    def snapshot(self) -> dict:
        """Plain values of every instrument."""
        return {
            "counters": {k: c.value for k, c in self._counters.items()},
            "gauges": {k: g.value for k, g in self._gauges.items()},
            "histograms": {
                k: h.summary() for k, h in self._histograms.items()
            },
        }

    def reset(self) -> None:
        """Zero every instrument in place: a handle taken before the reset
        keeps counting into the registry after it."""
        for c in self._counters.values():
            c.value = 0
        for g in self._gauges.values():
            g.value = 0.0
        for h in self._histograms.values():
            h.clear()

    def summary(self) -> str:
        """Human-readable multi-section table of the current snapshot."""
        snap = self.snapshot()
        lines: List[str] = []
        if snap["counters"]:
            lines.append("counters:")
            width = max(len(k) for k in snap["counters"])
            for k in sorted(snap["counters"]):
                lines.append(f"  {k:<{width}}  {snap['counters'][k]}")
        if snap["gauges"]:
            lines.append("gauges:")
            width = max(len(k) for k in snap["gauges"])
            for k in sorted(snap["gauges"]):
                lines.append(f"  {k:<{width}}  {snap['gauges'][k]:g}")
        if snap["histograms"]:
            lines.append(
                "histograms:            count       mean        p50"
                "        p95        p99"
            )
            for k in sorted(snap["histograms"]):
                s = snap["histograms"][k]
                lines.append(
                    f"  {k:<20} {s['count']:6d} {s['mean']:10.4g} "
                    f"{s['p50']:10.4g} {s['p95']:10.4g} {s['p99']:10.4g}"
                )
        return "\n".join(lines) if lines else "no metrics recorded"


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry."""
    return _REGISTRY
