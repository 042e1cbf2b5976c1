"""Training harness: optimizers, schedules, trainer, metrics."""

from repro.training.optim import SGD, Adam, Optimizer, clip_grad_norm
from repro.training.lr_schedule import (
    ConstantLR,
    LRSchedule,
    WarmupCosineLR,
    WarmupLinearLR,
)
from repro.training.metrics import (
    History,
    TrainingRecord,
    pareto_frontier,
    time_to_loss,
)
from repro.training.trainer import RoutingStats, Trainer, TrainerConfig

__all__ = [
    "Adam",
    "SGD",
    "Optimizer",
    "clip_grad_norm",
    "LRSchedule",
    "ConstantLR",
    "WarmupCosineLR",
    "WarmupLinearLR",
    "History",
    "TrainingRecord",
    "time_to_loss",
    "pareto_frontier",
    "Trainer",
    "TrainerConfig",
    "RoutingStats",
]
