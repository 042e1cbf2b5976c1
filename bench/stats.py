"""Order statistics shared by the runner, the A/A check and the tests.

Kept free of NumPy on purpose: ``noise.py`` and the orchestration half of
``run.py`` must not import it before the BLAS thread pins are in place.
"""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 100].

    Same definition as ``numpy.percentile``'s default: rank
    ``q/100 * (n - 1)`` between the two nearest order statistics.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q={q} outside [0, 100]")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def weighted_percentile(
    values: Sequence[float], weights: Sequence[int], q: float
) -> float:
    """:func:`percentile` of the sample in which ``values[i]`` occurs
    ``weights[i]`` times, without materialising it."""
    pairs = sorted((v, w) for v, w in zip(values, weights) if w > 0)
    total = sum(w for _, w in pairs)
    if total == 0:
        raise ValueError("weighted percentile of an empty sample")
    rank = q / 100.0 * (total - 1)
    lo, frac = int(rank), rank - int(rank)

    def at(index: int) -> float:
        seen = 0
        for v, w in pairs:
            seen += w
            if index < seen:
                return v
        return pairs[-1][0]

    v_lo = at(lo)
    return v_lo + (at(min(lo + 1, total - 1)) - v_lo) * frac


def chunked_rate(
    durations: Sequence[float], units: Sequence[float], chunks: int
) -> float:
    """Median over ``chunks`` contiguous chunks of ``sum(units) /
    sum(durations)``.

    A burst of outside interference lands in one chunk and moves the
    median far less than it moves total-work-over-total-wall.
    """
    n = len(durations)
    if n == 0 or n != len(units):
        raise ValueError("need equally many durations and units, at least one")
    chunks = max(1, min(chunks, n))
    rates = []
    for i in range(chunks):
        lo, hi = i * n // chunks, (i + 1) * n // chunks
        rates.append(sum(units[lo:hi]) / sum(durations[lo:hi]))
    return statistics.median(rates)


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the driver computes it
    (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first
