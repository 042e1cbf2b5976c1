"""Deterministic random number generation helpers.

Every stochastic component in the library (parameter init, routing jitter,
synthetic data, dropout) draws from a ``numpy.random.Generator`` that is
either passed explicitly or derived from the process-global seed set with
:func:`seed_all`.  This keeps experiments reproducible without threading a
generator through every call site.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

_GLOBAL_RNG: np.random.Generator = np.random.default_rng(0)

RngLike = Union[None, int, np.random.Generator]


def seed_all(seed: int) -> None:
    """Set the process-global seed used by :func:`get_rng` defaults."""
    global _GLOBAL_RNG
    _GLOBAL_RNG = np.random.default_rng(seed)


def get_global_state() -> dict:
    """Serializable state of the process-global generator (for resume)."""
    return _GLOBAL_RNG.bit_generator.state


def set_global_state(state: dict) -> None:
    """Restore the process-global generator from :func:`get_global_state`.

    The state must come from the same bit-generator type (PCG64 by
    default); mismatches raise a clear error instead of corrupting the
    stream.
    """
    expected = type(_GLOBAL_RNG.bit_generator).__name__
    got = state.get("bit_generator") if isinstance(state, dict) else None
    if got != expected:
        raise ValueError(
            f"RNG state is for bit generator {got!r}, process-global "
            f"generator is {expected!r}"
        )
    _GLOBAL_RNG.bit_generator.state = state


def get_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a ``numpy.random.Generator``.

    - ``None``      -> the process-global generator (stateful).
    - ``int``       -> a fresh generator seeded with that value.
    - ``Generator`` -> returned unchanged.
    """
    if rng is None:
        return _GLOBAL_RNG
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"cannot coerce {type(rng).__name__} into a Generator")


def spawn_rng(rng: RngLike = None, n: int = 1) -> list:
    """Derive ``n`` independent child generators from ``rng``.

    Used to give each simulated device / worker its own stream so that
    changing the number of workers does not perturb unrelated streams.
    """
    base = get_rng(rng)
    seeds = base.integers(0, 2**63 - 1, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]
