"""Parameter initializers matching Megatron-LM conventions."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, get_rng


def normal(shape, std: float = 0.02, rng: RngLike = None) -> np.ndarray:
    """Gaussian init with Megatron's default std=0.02."""
    return (get_rng(rng).standard_normal(shape) * std).astype(np.float32)


def scaled_normal(shape, std: float, num_layers: int, rng: RngLike = None) -> np.ndarray:
    """Output-projection init scaled by ``1/sqrt(2*num_layers)`` (GPT-2)."""
    return normal(shape, std / np.sqrt(2.0 * num_layers), rng)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
