"""Shared model builders and kernel-rung fixtures for the serving tests.

Small models with a *small* ``max_seq_len`` so sliding-window behavior
is exercised in a handful of decode steps (the factory-built models use
the scaled Table-1 sequence lengths, which are too long for that).

The serving GEMMs have two rungs — the kernel table's serving entries,
in the one prelude, and the einsum reference they must equal bit for bit
(:mod:`repro.serving.kernels`).  ``native_rung`` skips a test when the
prelude cannot load here; ``einsum_rung`` takes it away through the real
switch (``REPRO_NO_CC=1``) so the test runs on the fallback exactly as a
toolchain-less host would.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import dMoE
from repro.moe import DynamicCapacityMoELayer, MoELayer
from repro.nn import TransformerLM

VOCAB = 61
HIDDEN = 32
HEADS = 2
LAYERS = 2
MAX_SEQ = 16
FFN = 64
EXPERTS = 4


def make_model(system: str, top_k: int = 1, rng: int = 0) -> TransformerLM:
    if system == "dense":
        factory = None
    elif system == "dmoe":
        factory = lambda i: dMoE(  # noqa: E731
            HIDDEN, FFN, EXPERTS, top_k=top_k, block_size=8, rng=rng
        )
    elif system == "moe":
        factory = lambda i: MoELayer(  # noqa: E731
            HIDDEN, FFN, EXPERTS, capacity_factor=1.0, top_k=top_k, rng=rng
        )
    elif system == "tutel-dmoe":
        factory = lambda i: DynamicCapacityMoELayer(  # noqa: E731
            hidden_size=HIDDEN, ffn_hidden_size=FFN, num_experts=EXPERTS,
            top_k=top_k, rng=rng,
        )
    else:
        raise ValueError(system)
    model = TransformerLM(
        vocab_size=VOCAB,
        hidden_size=HIDDEN,
        num_layers=LAYERS,
        num_heads=HEADS,
        max_seq_len=MAX_SEQ,
        ffn_factory=factory,
        rng=rng,
    )
    model.eval()
    return model


def rebind_kernels() -> None:
    """Forget the toolchain verdict and every direct entry's binding; the
    next serving call probes, loads the prelude and binds again under the
    current environment."""
    from repro.autograd.lower import runtime, toolchain

    toolchain._reset_for_tests()
    runtime._direct.clear()


@pytest.fixture
def native_rung():
    from repro.autograd.lower import runtime

    if runtime.load_prelude() is None:
        pytest.skip("the prelude is unavailable (no toolchain)")


@pytest.fixture
def einsum_rung(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CC", "1")
    rebind_kernels()
    yield
    # monkeypatch restores the environment after this; binding is lazy.
    rebind_kernels()


@pytest.fixture
def prompts() -> np.ndarray:
    return np.random.default_rng(3).integers(0, VOCAB, size=(3, 5))
