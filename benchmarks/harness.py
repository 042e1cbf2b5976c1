"""Shared machinery for the paper-reproduction benchmarks.

Two kinds of measurement coexist here:

- **Scaled-down real training** on the synthetic Pile (CPU, minutes):
  provides the *loss* axes of Figures 2/7/8.  Model sizes are reduced
  stand-ins for the paper's XS/Small/Medium (documented in DESIGN.md);
  results are cached per process so multiple figures can share runs.
- **The analytical A100 model** (:mod:`repro.gpu`): provides the *time*
  axes and the kernel-level comparisons of Figures 4/9 and Table 3.

Absolute numbers therefore differ from the paper; every benchmark prints
the paper's value next to the measured one and asserts only the *shape*
(ordering, growth, bands).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.moe import DynamicCapacityMoELayer, MoELayer
from repro.nn import TransformerLM
from repro.training import Adam, History, Trainer, TrainerConfig, WarmupCosineLR
from repro.utils.rng import seed_all

#: Scaled stand-ins for the paper's model sizes (hidden, layers).  The
#: ratios between sizes mirror Table 1's XS/Small/Medium progression.
SCALED_SIZES: Dict[str, Tuple[int, int]] = {
    "XS": (32, 2),
    "Small": (48, 3),
    "Medium": (64, 4),
}

#: Smoke mode (``REPRO_BENCH_SMOKE=1`` or ``pytest --smoke``) shrinks the
#: training sweeps to seconds so the benchmarks run inside tier-1 CI as
#: regression canaries; figure-level quality assertions are relaxed, but
#: every kernel and model path still executes end to end.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")

VOCAB = 128
SEQ = 32
NUM_EXPERTS = 8
BLOCK_SIZE = 8
GLOBAL_BATCH = 16
MICRO_BATCH = 8
TRAIN_STEPS = 10 if SMOKE else 120
EVAL_EVERY = 5 if SMOKE else 15
STREAM_TOKENS = 12_000 if SMOKE else 160_000

_pile_cache: Optional[Tuple[LMDataset, LMDataset]] = None
_run_cache: Dict[tuple, History] = {}


def pile_data() -> Tuple[LMDataset, LMDataset]:
    """The shared synthetic-Pile train/val split (cached)."""
    global _pile_cache
    if _pile_cache is None:
        pile = SyntheticPile(
            PileConfig(vocab_size=VOCAB, num_domains=NUM_EXPERTS, branching=4),
            seed=7,
        )
        ds = LMDataset(pile.token_stream(STREAM_TOKENS, 64), seq_len=SEQ)
        _pile_cache = ds.split(0.05)
    return _pile_cache


def build_model(system: str, size: str, capacity_factor: float = 1.0) -> TransformerLM:
    """``system``: dense | dmoe | tutel-dmoe | moe (fixed capacity)."""
    hidden, layers = SCALED_SIZES[size]
    ffn = 4 * hidden

    if system == "dense":
        factory = None
    elif system == "dmoe":
        factory = lambda i: dMoE(
            hidden, ffn, NUM_EXPERTS, block_size=BLOCK_SIZE, rng=1000 + i,
            load_balance_coef=0.01,
        )
    elif system == "tutel-dmoe":
        factory = lambda i: DynamicCapacityMoELayer(
            hidden_size=hidden, ffn_hidden_size=ffn, num_experts=NUM_EXPERTS,
            rng=1000 + i, load_balance_coef=0.01,
        )
    elif system == "moe":
        factory = lambda i: MoELayer(
            hidden, ffn, NUM_EXPERTS, capacity_factor=capacity_factor,
            rng=1000 + i, load_balance_coef=0.01,
        )
    else:
        raise ValueError(f"unknown system {system!r}")
    return TransformerLM(
        VOCAB, hidden, num_layers=layers, num_heads=max(hidden // 16, 1),
        max_seq_len=SEQ, ffn_factory=factory, rng=5,
    )


def run_training(
    system: str,
    size: str = "XS",
    capacity_factor: float = 1.0,
    steps: int = TRAIN_STEPS,
    lr: float = 3e-3,
) -> History:
    """Train one configuration (cached per process)."""
    key = (system, size, capacity_factor, steps, lr)
    if key in _run_cache:
        return _run_cache[key]
    seed_all(0)
    train, val = pile_data()
    model = build_model(system, size, capacity_factor)
    cfg = TrainerConfig(
        global_batch=GLOBAL_BATCH,
        micro_batch=MICRO_BATCH,
        max_steps=steps,
        eval_every=EVAL_EVERY,
        eval_batches=8,
        log_every=EVAL_EVERY,
    )
    trainer = Trainer(
        model,
        train,
        val,
        cfg,
        optimizer=Adam(model.parameters(), lr=lr),
        schedule=WarmupCosineLR(lr, steps, warmup_steps=steps // 20),
    )
    history = trainer.train()
    _run_cache[key] = history
    return history


def val_curve(history: History):
    """(steps, val_losses) arrays for a run."""
    return history.val_points


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
