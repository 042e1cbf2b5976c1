"""Training curves and the Pareto-frontier analysis used by Figure 8."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class TrainingRecord:
    """One logged point of a training run."""

    step: int
    tokens: int
    loss: float
    val_loss: Optional[float] = None
    aux_loss: Optional[float] = None
    lr: Optional[float] = None
    #: Global L2 norm of the step's gradients before clipping (the
    #: number the clip scale is derived from); None on a skipped step.
    grad_norm: Optional[float] = None
    #: Autograd telemetry for the step that produced this record (see
    #: ``repro.autograd.stats``); None when the trainer doesn't track it.
    tape_nodes: Optional[int] = None
    nodes_fused: Optional[int] = None
    arena_hit_rate: Optional[float] = None
    #: Wall-clock seconds for the optimizer step that produced this
    #: record (always measured; two perf_counter reads per step).
    step_time: Optional[float] = None
    #: Per-phase seconds (data/forward/backward/...) from the tracer;
    #: None unless a tracer was installed (``repro.observability``).
    phase_times: Optional[Dict[str, float]] = None


@dataclass
class History:
    """Accumulated records with convenience accessors."""

    records: List[TrainingRecord] = field(default_factory=list)

    def log(self, record: TrainingRecord) -> None:
        self.records.append(record)

    @property
    def steps(self) -> np.ndarray:
        # Explicit dtype: an empty np.array([]) would default to float64.
        return np.array([r.step for r in self.records], dtype=np.int64)

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records], dtype=np.float64)

    @property
    def step_times(self) -> np.ndarray:
        """Per-record step seconds (NaN where the trainer didn't time)."""
        return np.array(
            [
                r.step_time if r.step_time is not None else np.nan
                for r in self.records
            ],
            dtype=np.float64,
        )

    @property
    def val_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """(steps, val_losses) restricted to records with validation."""
        pts = [(r.step, r.val_loss) for r in self.records if r.val_loss is not None]
        if not pts:
            return np.array([]), np.array([])
        s, v = zip(*pts)
        return np.array(s), np.array(v)

    def final_val_loss(self) -> Optional[float]:
        for r in reversed(self.records):
            if r.val_loss is not None:
                return r.val_loss
        return None

    def smoothed_losses(self, alpha: float = 0.1) -> np.ndarray:
        """Exponential moving average of training loss."""
        out = np.empty(len(self.records))
        ema = None
        for i, r in enumerate(self.records):
            ema = r.loss if ema is None else alpha * r.loss + (1 - alpha) * ema
            out[i] = ema
        return out


def time_to_loss(
    times: Sequence[float], losses: Sequence[float], target_loss: float
) -> Optional[float]:
    """First (interpolated) time at which a monotone-ish loss curve reaches
    ``target_loss``; None if never reached.

    Used to compare systems at matched quality (Figs 7-8): the speedup of
    A over B at B's final loss is ``time_to_loss(B)/time_to_loss(A)``.
    """
    times = np.asarray(times, dtype=np.float64)
    losses = np.asarray(losses, dtype=np.float64)
    if len(times) == 0:
        return None
    # Running minimum makes the curve monotone (loss can be noisy).
    best = np.minimum.accumulate(losses)
    hit = np.nonzero(best <= target_loss)[0]
    if len(hit) == 0:
        return None
    i = hit[0]
    if i == 0:
        return float(times[0])
    # Linear interpolation between the straddling points.
    t0, t1 = times[i - 1], times[i]
    l0, l1 = best[i - 1], best[i]
    if l0 == l1:
        return float(t1)
    frac = (l0 - target_loss) / (l0 - l1)
    return float(t0 + frac * (t1 - t0))


def pareto_frontier(
    points: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Lower-left Pareto frontier of (time, loss) points.

    A point survives if no other point is both faster and better.  The
    paper compares dMoEs to the *frontier* of token-dropping MoEs across
    capacity factors (§6.2).
    """
    pts = sorted(points)
    frontier: List[Tuple[float, float]] = []
    best_loss = np.inf
    for t, l in pts:
        if l < best_loss:
            frontier.append((t, l))
            best_loss = l
    return frontier
