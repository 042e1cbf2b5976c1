"""Exporters: Chrome-trace JSON, plain-text step tables, JSONL run logs.

Three consumers, three formats:

- :func:`chrome_trace` / :func:`save_chrome_trace` — the Trace Event
  Format (``chrome://tracing`` "JSON Object Format", also loadable in
  Perfetto): complete ``"ph": "X"`` events with microsecond ``ts`` /
  ``dur``, plus ``"ph": "C"`` counter tracks for sampled values (arena
  hit rate, tape nodes).  Strict nesting is inherited from the tracer's
  span stack.
- :func:`step_table` — a terminal-friendly per-phase breakdown of the
  recorded training steps (what ``repro.cli trace`` prints).
- :func:`JsonlRunLog` / :func:`write_jsonl` — structured one-object-per-
  line run logs for offline analysis (every ``TrainingRecord`` plus a
  closing metrics snapshot).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, IO, Iterable, List, Optional, Union

from repro.observability.tracing import Span, Tracer
from repro.utils.timing import format_duration

#: Trace Event Format constants.
PHASE_COMPLETE = "X"
PHASE_COUNTER = "C"
PHASE_METADATA = "M"


def _micros(tracer: Tracer, t: float) -> float:
    """Tracer clock reading -> microseconds since the trace epoch."""
    return (t - tracer.epoch) * 1e6


def chrome_trace(tracer: Tracer, process_name: str = "repro") -> dict:
    """The tracer's spans and counter samples as a Trace Event object."""
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": PHASE_METADATA,
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": PHASE_METADATA,
            "pid": 0,
            "tid": 0,
            "args": {"name": "train"},
        },
    ]
    # One track per thread that traced, in order of first close; the
    # first is "train" (a single-threaded trace has only that one).
    tids: Dict[str, int] = {}
    for span in tracer.spans:
        if span.end is None:  # open span: not exportable
            continue
        tid = tids.get(span.thread)
        if tid is None:
            tid = tids[span.thread] = len(tids)
            if tid:
                events.append({
                    "name": "thread_name", "ph": PHASE_METADATA, "pid": 0,
                    "tid": tid, "args": {"name": span.thread},
                })
        args: Dict[str, object] = {"path": span.path}
        if span.args:
            args.update(span.args)
        events.append(
            {
                "name": span.name,
                "cat": span.path.split("/", 1)[0],
                "ph": PHASE_COMPLETE,
                "ts": _micros(tracer, span.start),
                "dur": (span.end - span.start) * 1e6,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    for ts, name, value in tracer.counter_samples:
        events.append(
            {
                "name": name,
                "ph": PHASE_COUNTER,
                "ts": _micros(tracer, ts),
                "pid": 0,
                "tid": 0,
                "args": {"value": value},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def save_chrome_trace(
    path: str, tracer: Tracer, process_name: str = "repro"
) -> dict:
    """Write :func:`chrome_trace` to ``path``; returns the trace object."""
    trace = chrome_trace(tracer, process_name=process_name)
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return trace


# ----------------------------------------------------------------------
# Plain-text step breakdown.
# ----------------------------------------------------------------------
def phase_rows(
    tracer: Tracer, root_name: str = "step"
) -> List[Dict[str, float]]:
    """One ``{"_total": step_seconds, phase: seconds, ...}`` per step."""
    rows = []
    for root in tracer.roots(root_name):
        row: Dict[str, float] = {"_total": root.duration}
        row.update(tracer.breakdown(root))
        rows.append(row)
    return rows


def step_rows_from_trace(
    trace: dict, root_name: str = "step"
) -> List[Dict[str, float]]:
    """Rebuild :func:`phase_rows` from an exported Chrome-trace object.

    Relies on the ``args.path`` field this module's exporter writes;
    phase attribution uses the path (``step/forward``) plus timestamp
    containment, so a re-loaded trace reports identically to the live
    tracer.
    """
    events = [
        e
        for e in trace.get("traceEvents", [])
        if e.get("ph") == PHASE_COMPLETE
    ]
    rows = []
    for root in events:
        if root.get("args", {}).get("path", root.get("name")) != root_name:
            continue
        t0, t1 = root["ts"], root["ts"] + root["dur"]
        row: Dict[str, float] = {"_total": root["dur"] / 1e6}
        child_prefix = root_name + "/"
        for ev in events:
            path = ev.get("args", {}).get("path", "")
            if (
                path == child_prefix + ev["name"]
                and t0 - 1e-6 <= ev["ts"]
                and ev["ts"] + ev["dur"] <= t1 + 1e-6
            ):
                row[ev["name"]] = row.get(ev["name"], 0.0) + ev["dur"] / 1e6
        rows.append(row)
    return rows


def step_table(tracer: Tracer, root_name: str = "step") -> str:
    """Aggregated per-phase table over every recorded ``step`` span.

    Columns: total seconds, share of summed step time, mean / p50 / p95
    per step.  The same table the ``repro.cli trace`` report prints.
    """
    return format_step_table(phase_rows(tracer, root_name), root_name)


def format_step_table(
    rows: List[Dict[str, float]], root_name: str = "step"
) -> str:
    """Render per-step phase rows (from a tracer or a trace file)."""
    if not rows:
        return f"no {root_name!r} spans recorded"
    import numpy as np

    phases: List[str] = []
    for row in rows:
        for name in row:
            if name != "_total" and name not in phases:
                phases.append(name)
    totals = np.array([row["_total"] for row in rows])
    step_sum = float(totals.sum())

    lines = [
        f"{len(rows)} steps, total {format_duration(step_sum)}, "
        f"mean {format_duration(float(totals.mean()))}/step",
        f"{'phase':<12} {'total':>10} {'share':>7} {'mean':>10} "
        f"{'p50':>10} {'p95':>10}",
    ]
    accounted = 0.0
    for phase in phases:
        vals = np.array([row.get(phase, 0.0) for row in rows])
        total = float(vals.sum())
        accounted += total
        lines.append(
            f"{phase:<12} {format_duration(total):>10} "
            f"{total / step_sum * 100 if step_sum else 0:>6.1f}% "
            f"{format_duration(float(vals.mean())):>10} "
            f"{format_duration(float(np.percentile(vals, 50))):>10} "
            f"{format_duration(float(np.percentile(vals, 95))):>10}"
        )
    other = step_sum - accounted
    lines.append(
        f"{'(other)':<12} {format_duration(other):>10} "
        f"{other / step_sum * 100 if step_sum else 0:>6.1f}%"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Structured JSONL run logs.
# ----------------------------------------------------------------------
def _jsonable(obj):
    """Best-effort conversion of records/arrays to JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item") and getattr(obj, "ndim", None) == 0:
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def write_jsonl(path: str, records: Iterable[object]) -> int:
    """Write records (dataclasses or dicts) one JSON object per line."""
    n = 0
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(_jsonable(record)))
            fh.write("\n")
            n += 1
    return n


class JsonlRunLog:
    """Incremental JSONL writer for long runs (one flush per record).

    >>> log = JsonlRunLog("run.jsonl")          # doctest: +SKIP
    >>> trainer.train(callback=log.write)       # doctest: +SKIP
    >>> log.close(final={"metrics": registry().snapshot()})  # doctest: +SKIP
    """

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        if isinstance(path_or_file, str):
            self._fh: IO[str] = open(path_or_file, "w")
            self._owns = True
        else:
            self._fh = path_or_file
            self._owns = False
        self.records_written = 0

    def write(self, record: object) -> None:
        self._fh.write(json.dumps(_jsonable(record)))
        self._fh.write("\n")
        self._fh.flush()
        self.records_written += 1

    def close(self, final: Optional[dict] = None) -> None:
        if final is not None:
            self.write(final)
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlRunLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# Validation (used by the bench-smoke trace canary and `repro.cli trace`).
# ----------------------------------------------------------------------
def validate_chrome_trace(trace: dict) -> List[dict]:
    """Schema-check a Trace Event object; returns its complete events.

    Asserts every event carries ``ph``/``ts``/``pid``/``tid`` (``dur``
    additionally for complete events) and that complete events on each
    (pid, tid) track are *strictly nested* — any two either disjoint or
    one containing the other, never partially overlapping.  Raises
    ``ValueError`` on the first violation.
    """
    if "traceEvents" not in trace:
        raise ValueError("trace object has no 'traceEvents' list")
    complete = []
    for i, ev in enumerate(trace["traceEvents"]):
        if "ph" not in ev:
            raise ValueError(f"event {i} has no 'ph'")
        if ev["ph"] == PHASE_METADATA:
            continue
        for key in ("ts", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} ({ev.get('name')}) lacks {key!r}")
        if ev["ph"] == PHASE_COMPLETE:
            if "dur" not in ev:
                raise ValueError(
                    f"complete event {i} ({ev.get('name')}) lacks 'dur'"
                )
            complete.append(ev)
    by_track: Dict[tuple, List[dict]] = {}
    for ev in complete:
        by_track.setdefault((ev["pid"], ev["tid"]), []).append(ev)
    eps = 1e-6  # microsecond rounding slack
    for track in by_track.values():
        track.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[dict] = []
        for ev in track:
            while stack and ev["ts"] >= stack[-1]["ts"] + stack[-1]["dur"] - eps:
                stack.pop()
            if stack and ev["ts"] + ev["dur"] > (
                stack[-1]["ts"] + stack[-1]["dur"] + eps
            ):
                raise ValueError(
                    f"events {stack[-1]['name']!r} and {ev['name']!r} "
                    "partially overlap — spans are not strictly nested"
                )
            stack.append(ev)
    return complete
