"""Machine-speed probe interleaved with the timed phases.

This benchmark runs on small shared VMs whose speed moves by 10-40% for
seconds to minutes at a time (a neighbour on the sibling hyperthread, by
the look of it: a fixed 1024^3 sgemm read 80-146 GFLOP/s across runs of
identical code).  Wall times taken there disagree between two runs of the
same commit by more than any bound worth gating.

So the timed phases run a small fixed reference computation every
``PERIOD_S`` between operations, never inside one: one 384^3 sgemm plus 60
rounds of small-array NumPy calls (einsum, add, exp, divide, each
allocating its result), ~4 ms.  The second part is what makes it track:
against ten runs each of two workloads in a noisy hour, a probe of sgemm +
interpreter loop left quartile spreads of 10-26% on the serving metrics
(36% raw), this one 6-15%; small-array NumPy work is as sensitive to a
busy neighbour as the program's own dispatch is, an in-cache loop is not.
Each timed sample is divided by the *dilation* at the moment it ended: the
mean cost of the probes on either side of it over ``REF_S``, the probe's
cost on a quiet machine.  A sample taken while the machine ran 30% slow is
scaled back by the 30% the probe saw.  ``REF_S`` only fixes the unit, so
that normalised milliseconds read like real ones on a quiet machine; the
probe is NumPy, nothing of this repository, so no change to the program
can move it.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Sequence

import numpy as np

PROBE_N = 384
PROBE_ROUNDS = 60


class Speedometer:
    REF_S = 3.6e-3
    PERIOD_S = 0.1

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((PROBE_N, PROBE_N), dtype=np.float32)
        self._b = rng.standard_normal((PROBE_N, PROBE_N), dtype=np.float32)
        self._out = np.empty_like(self._a)
        self._x = rng.standard_normal((4, 256), dtype=np.float32)
        self._bias = rng.standard_normal((4, 256), dtype=np.float32)
        self._w = rng.standard_normal((256, 256), dtype=np.float32)
        self.at: List[float] = []
        self.cost: List[float] = []
        #: Total seconds spent probing; callers subtract the part of it that
        #: fell inside an interval they measured.
        self.spent = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        np.matmul(self._a, self._b, out=self._out)
        x = self._x
        for _ in range(PROBE_ROUNDS):
            y = np.einsum("bh,hk->bk", x, self._w) + self._bias
            y = np.exp(y * 0.01)
            x = y / (1.0 + np.abs(y))
        cost = time.perf_counter() - t0
        self.at.append(t0)
        self.cost.append(cost)
        self.spent += cost

    def spot(self, n: int = 5) -> float:
        """Dilation right now: median of ``n`` back-to-back probes."""
        for _ in range(n):
            self.probe()
        return sorted(self.cost[-n:])[n // 2] / self.REF_S

    def tick(self) -> None:
        """Probe if ``PERIOD_S`` has passed since the last one."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.PERIOD_S:
            self.probe()

    def dilation(self, t: float) -> float:
        """How much slower than a quiet machine this one ran around ``t``."""
        i = bisect.bisect_right(self.at, t)
        before = self.cost[max(i - 1, 0)]
        after = self.cost[min(i, len(self.cost) - 1)]
        return (before + after) / 2.0 / self.REF_S

    def normalise(self, durations: Sequence[float], end_times: Sequence[float]) -> List[float]:
        return [d / self.dilation(t) for d, t in zip(durations, end_times)]

    def summary(self) -> dict:
        """Per-run reading for reports: median and extreme dilation."""
        ordered = sorted(self.cost)
        return {
            "probes": len(ordered),
            "dilation_p50": ordered[len(ordered) // 2] / self.REF_S,
            "dilation_min": ordered[0] / self.REF_S,
            "dilation_max": ordered[-1] / self.REF_S,
        }
