"""Lightweight instrumentation for the block-sparse kernel library.

Every kernel invocation records which dispatch path served it (the
grouped-GEMM fast path of :mod:`repro.sparse.dispatch` vs the per-block
batched path), its *nominal* FLOPs — ``2 * nnz * width`` over the padded
layout, whether or not the kernel skipped the padding, so the figure
stays comparable across kernels — and the exact rows it multiplied
(``rows_live``) out of the rows its layout holds (``rows_padded``).  The
topology cache in :mod:`repro.core.topology_builder` records hits and
misses.  Benchmarks read these counters to report *which* code actually
ran — a throughput number for "SDD on a block-diagonal topology" is only
meaningful if the fast path really fired — and how much padding it
skipped.  :func:`record_product` is the one place that counts a product;
the NumPy ops and the generated-C runners both call it.

The counters are plain dict increments (a few hundred nanoseconds per
kernel call, negligible next to any matmul) so they are always on.

Typical use::

    from repro.sparse import stats

    stats.reset()
    run_benchmark()
    snap = stats.snapshot()
    print(snap["ops"]["dsd"])          # {"grouped": 12, "blocked": 0, ...}
    print(snap["rows"]["dsd"])         # {"live": 12288, "padded": 19968}
    print(stats.summary())             # human-readable table
"""

from __future__ import annotations

import copy
from typing import Dict, Optional

from repro.sparse import dispatch

#: Dispatch paths a kernel call can take.
PATH_GROUPED = "grouped"
PATH_BLOCKED = "blocked"

_op_counts: Dict[str, Dict[str, int]] = {}
_op_flops: Dict[str, int] = {}
_op_rows: Dict[str, Dict[str, int]] = {}
_cache_counts: Dict[str, int] = {"hits": 0, "misses": 0, "evictions": 0}


def record_op(op: str, path: str, flops: int = 0) -> None:
    """Count one kernel invocation of ``op`` served by ``path``."""
    counts = _op_counts.setdefault(op, {PATH_GROUPED: 0, PATH_BLOCKED: 0})
    counts[path] = counts.get(path, 0) + 1
    _op_flops[op] = _op_flops.get(op, 0) + int(flops)


def record_product(op: str, path: str, topo, width: int) -> None:
    """Count one sparse product ``op`` over ``topo`` served by ``path``;
    ``width`` is the free dimension of its dense operand.

    The grouped path multiplies only the live rows of each group when the
    topology knows them; the per-block path multiplies every row."""
    record_op(op, path, 2 * topo.nnz * width)
    if path == PATH_GROUPED:
        layout = dispatch.live_layout(topo)
        live, padded = layout.rows_live, layout.rows_padded
    else:
        live = padded = topo.shape[0]
    rows = _op_rows.setdefault(op, {"live": 0, "padded": 0})
    rows["live"] += live
    rows["padded"] += padded


def record_cache(event: str) -> None:
    """Count one topology-cache ``hits`` / ``misses`` / ``evictions`` event."""
    _cache_counts[event] = _cache_counts.get(event, 0) + 1


def reset() -> None:
    """Zero every counter (start of a benchmark region)."""
    _op_counts.clear()
    _op_flops.clear()
    _op_rows.clear()
    for k in _cache_counts:
        _cache_counts[k] = 0


def snapshot() -> dict:
    """A deep copy of all counters: ``{"ops": ..., "flops": ..., "rows":
    ..., "cache": ...}`` — mutating the snapshot never touches the live
    counters."""
    return {
        "ops": copy.deepcopy(_op_counts),
        "flops": dict(_op_flops),
        "rows": copy.deepcopy(_op_rows),
        "cache": dict(_cache_counts),
    }


def total_flops() -> int:
    return sum(_op_flops.values())


def rows_total() -> tuple:
    """``(rows_live, rows_padded)`` over every product counted so far."""
    return (
        sum(r["live"] for r in _op_rows.values()),
        sum(r["padded"] for r in _op_rows.values()),
    )


def live_row_fraction() -> float:
    """``rows_live / rows_padded`` over every product counted so far: the
    share of the padded layout the kernels actually multiplied (1.0 when
    nothing was skipped or nothing ran)."""
    live, padded = rows_total()
    return live / padded if padded else 1.0


def grouped_fraction(op: Optional[str] = None) -> float:
    """Fraction of calls (of ``op``, or overall) served by the fast path."""
    if op is not None:
        counts = _op_counts.get(op, {})
        items = [counts]
    else:
        items = list(_op_counts.values())
    grouped = sum(c.get(PATH_GROUPED, 0) for c in items)
    total = sum(sum(c.values()) for c in items)
    return grouped / total if total else 0.0


def cache_hit_rate() -> float:
    total = _cache_counts["hits"] + _cache_counts["misses"]
    return _cache_counts["hits"] / total if total else 0.0


def summary() -> str:
    """Human-readable counter table for benchmark output."""
    lines = ["op            grouped   blocked      GFLOP  rows_live rows_padded"]
    for op in sorted(_op_counts):
        c = _op_counts[op]
        r = _op_rows.get(op, {})
        lines.append(
            f"{op:12} {c.get(PATH_GROUPED, 0):9d} {c.get(PATH_BLOCKED, 0):9d} "
            f"{_op_flops.get(op, 0) / 1e9:10.3f} "
            f"{r.get('live', 0):10d} {r.get('padded', 0):11d}"
        )
    if _op_rows:
        live = live_row_fraction() * 100
        lines.append(
            f"rows multiplied: {live:.1f}% of the padded layout "
            f"({100 - live:.1f}% padding skipped)"
        )
    hits, misses = _cache_counts["hits"], _cache_counts["misses"]
    if hits or misses:
        lines.append(
            f"topology cache: {hits} hits / {misses} misses "
            f"({cache_hit_rate() * 100:.1f}% hit rate)"
        )
    return "\n".join(lines)
