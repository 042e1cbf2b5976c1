"""Unified observability: hierarchical tracing, metrics, exporters.

The three entry points (see ``docs/observability.md``):

- **Spans** — ``with tracing() as tracer: trainer.train()`` records a
  nested wall-clock breakdown of every hooked hot path (trainer phases,
  MoE routing/permutation/topology, sparse kernel variants, collectives).
  :func:`span` is the hook the instrumented code calls; with no tracer
  installed it is a single ``is None`` check returning a shared no-op.
- **Metrics** — :func:`registry` holds every counter, gauge and
  histogram of the run, the ``sparse.stats`` / ``autograd.stats`` /
  ``resilience.counters`` counts included (one flat namespace).
- **Exporters** — :func:`save_chrome_trace` (``chrome://tracing`` /
  Perfetto), :func:`step_table` (terminal report, also behind
  ``python -m repro.cli trace``), and :class:`JsonlRunLog` /
  :func:`write_jsonl` (structured run logs).
"""

from repro.observability.export import (
    JsonlRunLog,
    chrome_trace,
    format_step_table,
    phase_rows,
    save_chrome_trace,
    step_rows_from_trace,
    step_table,
    validate_chrome_trace,
    write_jsonl,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.observability.tracing import (
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlRunLog",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "chrome_trace",
    "format_step_table",
    "get_tracer",
    "phase_rows",
    "registry",
    "save_chrome_trace",
    "set_tracer",
    "span",
    "step_rows_from_trace",
    "step_table",
    "tracing",
    "validate_chrome_trace",
    "write_jsonl",
]
