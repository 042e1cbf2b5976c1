"""Numeric guardrails: sentinels, spike detection, skip-and-rewind.

The dropless guarantee of the paper says no token is silently discarded;
this module extends the same "nothing silent" discipline to numerics.
Three mechanisms, composed by :class:`NumericGuard` inside the trainer:

1. **Sentinels** — every step's loss is checked for NaN/Inf before the
   optimizer may apply the step.  (Gradients need no sweep of their
   own: the trainer skips any step whose global gradient norm is not
   finite, and counts it here as ``nonfinite_grad``.)
2. **Loss-spike detector** — a rolling median over recent healthy
   losses; a step whose loss exceeds ``spike_factor`` times the median
   is treated as suspect even though it is finite (the classic
   symptom of a poisoned update or corrupted batch).
3. **Skip-and-rewind** — bad steps skip the optimizer update; after
   ``max_consecutive_bad`` bad steps in a row the trainer restores the
   last known-good snapshot (parameters and optimizer moments) and
   continues on fresh data.

Verdicts are strings (``"ok"``, ``"nonfinite_loss"``, ...) so the
trainer can log *why* a step was skipped and counters can assert the
paths fired.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

import numpy as np

from repro.resilience import counters

#: Step verdicts produced by :class:`NumericGuard`.
OK = "ok"
NONFINITE_LOSS = "nonfinite_loss"
NONFINITE_GRAD = "nonfinite_grad"
LOSS_SPIKE = "loss_spike"
COLLECTIVE_FAULT = "collective_fault"

BAD_VERDICTS = frozenset(
    {NONFINITE_LOSS, NONFINITE_GRAD, LOSS_SPIKE, COLLECTIVE_FAULT}
)


@dataclass
class GuardrailConfig:
    """Thresholds for :class:`NumericGuard`.

    Attributes:
        spike_window: healthy losses kept for the rolling median.
        spike_min_history: observations required before spike detection
            arms (prevents false positives on the noisy first steps).
        spike_factor: loss > ``factor * median`` is flagged as a spike
            (0 disables spike detection).
        max_consecutive_bad: K — consecutive bad steps that trigger a
            rewind to the last known-good snapshot.
        snapshot_every: good steps between known-good snapshots (1 =
            snapshot after every good step).
        rewind: enable the rewind path (skip-only when False).
    """

    spike_window: int = 16
    spike_min_history: int = 5
    spike_factor: float = 10.0
    max_consecutive_bad: int = 3
    snapshot_every: int = 1
    rewind: bool = True

    def __post_init__(self) -> None:
        if self.spike_window < 2:
            raise ValueError("spike_window must be >= 2")
        if self.max_consecutive_bad < 1:
            raise ValueError("max_consecutive_bad must be >= 1")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")


class LossSpikeDetector:
    """Rolling-median spike detector over healthy losses.

    Only losses from *good* steps enter the window, so one spike does
    not drag the median up and mask the next one.
    """

    def __init__(
        self, window: int = 16, factor: float = 10.0, min_history: int = 5
    ) -> None:
        self.window = window
        self.factor = factor
        self.min_history = min_history
        self._history: Deque[float] = deque(maxlen=window)

    def is_spike(self, loss: float) -> bool:
        if self.factor <= 0 or len(self._history) < self.min_history:
            return False
        return loss > self.factor * float(np.median(self._history))

    def record(self, loss: float) -> None:
        """Add a healthy loss to the rolling window."""
        self._history.append(float(loss))

    def reset(self) -> None:
        self._history.clear()

    @property
    def median(self) -> Optional[float]:
        return float(np.median(self._history)) if self._history else None


class NumericGuard:
    """Per-run guardrail state: verdicts, bad-streak tracking, counters."""

    def __init__(self, config: Optional[GuardrailConfig] = None) -> None:
        self.config = config or GuardrailConfig()
        self.spike_detector = LossSpikeDetector(
            window=self.config.spike_window,
            factor=self.config.spike_factor,
            min_history=self.config.spike_min_history,
        )
        self.bad_streak = 0
        self.rewinds = 0
        self.verdict_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def check_loss(self, loss: float) -> str:
        """Sentinel + spike verdict for a step's mean training loss."""
        if not np.isfinite(loss):
            return NONFINITE_LOSS
        if self.spike_detector.is_spike(loss):
            return LOSS_SPIKE
        return OK

    # ------------------------------------------------------------------
    def record_good(self, loss: float) -> None:
        """A step passed all checks and applied its update."""
        self.bad_streak = 0
        self.spike_detector.record(loss)
        self.verdict_counts[OK] = self.verdict_counts.get(OK, 0) + 1

    def record_bad(self, verdict: str) -> bool:
        """A step was skipped; returns True when a rewind is due."""
        if verdict not in BAD_VERDICTS:
            raise ValueError(f"not a bad verdict: {verdict!r}")
        self.bad_streak += 1
        self.verdict_counts[verdict] = self.verdict_counts.get(verdict, 0) + 1
        counters.increment(f"guardrail_{verdict}")
        return (
            self.config.rewind
            and self.bad_streak >= self.config.max_consecutive_bad
        )

    def record_rewind(self) -> None:
        self.bad_streak = 0
        self.rewinds += 1
        self.spike_detector.reset()
        counters.increment("guardrail_rewinds")

    @property
    def bad_steps(self) -> int:
        return sum(
            n for v, n in self.verdict_counts.items() if v in BAD_VERDICTS
        )
