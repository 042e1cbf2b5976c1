"""Counts of the block-sparse kernel library, kept in the metrics registry.

Every kernel invocation records which dispatch path served it (the
grouped-GEMM fast path of :mod:`repro.sparse.dispatch` vs the per-block
batched path), its *nominal* FLOPs — ``2 * nnz * width`` over the padded
layout, whether or not the kernel skipped the padding, so the figure
stays comparable across kernels — and the exact rows it multiplied
(``rows_live``) out of the rows its layout holds (``rows_padded``).  The
topology cache in :mod:`repro.core.topology_builder` records hits,
misses and evictions.  Benchmarks read these counts to report *which*
code actually ran — a throughput number for "SDD on a block-diagonal
topology" is only meaningful if the fast path really fired — and how
much padding it skipped.

The counts are registry counters (:func:`repro.observability.registry`):

- ``sparse/<op>/grouped``, ``sparse/<op>/blocked`` — calls per path;
- ``sparse/<op>/flops``;
- ``sparse/<op>/rows_live``, ``sparse/<op>/rows_padded``;
- ``sparse/topology_cache/hits|misses|evictions``.

An op resolves its :class:`Product` handles once, at import, and passes
one to :func:`record_product` per call — the one place that counts a
product, for the NumPy ops and the generated-C runners alike.  This
module keeps that arithmetic and the derived reads below.

Typical use::

    from repro.observability import registry
    from repro.sparse import stats

    stats.reset()
    run_benchmark()
    registry().counter("sparse/dsd/grouped").value     # 12
    stats.grouped_fraction(), stats.live_row_fraction()
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observability.metrics import Counter, registry
from repro.sparse import dispatch

#: Dispatch paths a kernel call can take.
PATH_GROUPED = "grouped"
PATH_BLOCKED = "blocked"

_REG = registry()
#: op -> its registry counters (handles; the counts live in the registry).
_OPS: Dict[str, Dict[str, Counter]] = {}
_CACHE = {
    event: _REG.counter(f"sparse/topology_cache/{event}")
    for event in ("hits", "misses", "evictions")
}


def _op_counters(op: str) -> Dict[str, Counter]:
    counters = _OPS.get(op)
    if counters is None:
        counters = _OPS[op] = {
            key: _REG.counter(f"sparse/{op}/{key}")
            for key in (PATH_GROUPED, PATH_BLOCKED, "flops", "rows_live", "rows_padded")
        }
    return counters


class Product:
    """The registry counters one sparse product ``op`` bumps when
    ``path`` serves it."""

    __slots__ = ("calls", "flops", "rows_live", "rows_padded", "grouped")

    def __init__(self, op: str, path: str) -> None:
        counters = _op_counters(op)
        self.calls = counters[path]
        self.flops = counters["flops"]
        self.rows_live = counters["rows_live"]
        self.rows_padded = counters["rows_padded"]
        self.grouped = path == PATH_GROUPED


def record_product(p: Product, topo, width: int) -> None:
    """Count one product over ``topo``; ``width`` is the free dimension
    of its dense operand.

    The grouped path multiplies only the live rows of each group when the
    topology knows them; the per-block path multiplies every row."""
    p.calls.value += 1
    p.flops.value += 2 * topo.nnz * width
    if p.grouped:
        layout = dispatch.live_layout(topo)
        p.rows_live.value += layout.rows_live
        p.rows_padded.value += layout.rows_padded
    else:
        rows = topo.shape[0]
        p.rows_live.value += rows
        p.rows_padded.value += rows


def record_cache(event: str) -> None:
    """Count one topology-cache ``hits`` / ``misses`` / ``evictions`` event."""
    _CACHE[event].value += 1


def reset() -> None:
    """Zero this module's counters (start of a benchmark region)."""
    for counters in (*_OPS.values(), _CACHE):
        for c in counters.values():
            c.value = 0


def total_flops() -> int:
    return sum(c["flops"].value for c in _OPS.values())


def rows_total() -> tuple:
    """``(rows_live, rows_padded)`` over every product counted so far."""
    return (
        sum(c["rows_live"].value for c in _OPS.values()),
        sum(c["rows_padded"].value for c in _OPS.values()),
    )


def live_row_fraction() -> float:
    """``rows_live / rows_padded`` over every product counted so far: the
    share of the padded layout the kernels actually multiplied (1.0 when
    nothing was skipped or nothing ran)."""
    live, padded = rows_total()
    return live / padded if padded else 1.0


def grouped_fraction(op: Optional[str] = None) -> float:
    """Fraction of calls (of ``op``, or overall) served by the fast path."""
    if op is None:
        items = list(_OPS.values())
    else:
        items = [_OPS[op]] if op in _OPS else []
    grouped = sum(c[PATH_GROUPED].value for c in items)
    total = grouped + sum(c[PATH_BLOCKED].value for c in items)
    return grouped / total if total else 0.0


def cache_hit_rate() -> float:
    hits, misses = _CACHE["hits"].value, _CACHE["misses"].value
    return hits / (hits + misses) if hits + misses else 0.0
