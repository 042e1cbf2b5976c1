"""Learning-rate schedules (Megatron-LM style warmup + decay)."""

from __future__ import annotations

import numpy as np


class LRSchedule:
    """Maps a step index to a learning rate — a Python ``float``, never
    a NumPy scalar (``Optimizer.step`` says why)."""

    def __call__(self, step: int) -> float:
        raise NotImplementedError


class ConstantLR(LRSchedule):
    def __init__(self, lr: float) -> None:
        self.lr = float(lr)

    def __call__(self, step: int) -> float:
        return self.lr


class WarmupCosineLR(LRSchedule):
    """Linear warmup to ``peak_lr``, cosine decay to ``min_lr``.

    This is the schedule Shoeybi et al. (2019) use for GPT-2 style
    training, which the paper adopts (§3).
    """

    def __init__(
        self,
        peak_lr: float,
        total_steps: int,
        warmup_steps: int = 0,
        min_lr: float = 0.0,
    ) -> None:
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not 0 <= warmup_steps <= total_steps:
            raise ValueError("warmup_steps must be within [0, total_steps]")
        self.peak_lr = peak_lr
        self.total_steps = total_steps
        self.warmup_steps = warmup_steps
        self.min_lr = min_lr

    def __call__(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return float(self.peak_lr * (step + 1) / self.warmup_steps)
        progress = (step - self.warmup_steps) / max(
            self.total_steps - self.warmup_steps, 1
        )
        progress = min(max(progress, 0.0), 1.0)
        cos = 0.5 * (1.0 + np.cos(np.pi * progress))
        return float(self.min_lr + (self.peak_lr - self.min_lr) * cos)


class WarmupLinearLR(LRSchedule):
    """Linear warmup then linear decay to ``min_lr``."""

    def __init__(
        self,
        peak_lr: float,
        total_steps: int,
        warmup_steps: int = 0,
        min_lr: float = 0.0,
    ) -> None:
        self.peak_lr = peak_lr
        self.total_steps = max(total_steps, 1)
        self.warmup_steps = warmup_steps
        self.min_lr = min_lr

    def __call__(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return float(self.peak_lr * (step + 1) / self.warmup_steps)
        progress = (step - self.warmup_steps) / max(
            self.total_steps - self.warmup_steps, 1
        )
        progress = min(max(progress, 0.0), 1.0)
        return float(self.min_lr + (self.peak_lr - self.min_lr) * (1.0 - progress))
