"""GPU memory model: weights, optimizer state, activations (Table 3).

Reproduces the paper's micro-batch-size table by accounting, per GPU:

- **training state**: 16 bytes/parameter (fp16 weight + fp16 gradient +
  fp32 master + two fp32 Adam moments), with expert parameters sharded
  over the expert-parallel group;
- **activations** (fp16, no recomputation), per layer per micro batch:
  ``(14 + 18 * expansion) * s*b*h + 4 * a * s^2 * b`` bytes — 14 for
  attention block + layernorms, 18 for the FFN/expert MLP scaled by the
  token *expansion* factor (top_k x capacity factor x padding), 4as^2b
  for attention scores/probs; MoE layers add permutation staging, giving
  the expert term a coefficient of 30;
- **loss head**: 8 bytes per logit (fp16 logits + fp32 softmax for the
  fused cross-entropy backward).

The usable capacity is 72 GiB of the A100's 80GB (allocator/framework
reserve).  With these constants the model reproduces every Megatron-LM
and MegaBlocks row of Table 3 exactly; the Tutel rows additionally need
the *peak* dynamic capacity factor each model hit during training, which
the paper does not report — the calibrated values in
:data:`TUTEL_PEAK_CAPACITY_FACTOR` are chosen to be consistent with
Table 3 and with Hwang et al.'s observation of factors spiking past 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.configs.moe import MoEConfig
from repro.configs.transformer import TransformerConfig
from repro.gpu.device import DeviceSpec

#: Bytes of optimizer + weight + gradient state per parameter
#: (mixed-precision Adam as in Megatron-LM).
TRAINING_BYTES_PER_PARAM = 16

#: Per-layer activation coefficients (bytes / (seq * batch * hidden)).
ATTN_LN_COEF = 14  # attention block + layernorms + residual staging
FFN_COEF = 18  # dense MLP activations
MOE_FFN_COEF = 30  # expert MLP + permutation staging (gather/scatter)

#: Attention score/prob bytes per (head * seq^2 * batch).
ATTN_QUADRATIC_COEF = 4

#: Loss-head bytes per logit (fp16 logits + fp32 softmax buffer).
LOGIT_COEF = 8

#: Usable fraction of HBM after framework/allocator reserve.
USABLE_BYTES_A100 = 72 * 1024**3

#: Calibrated peak dynamic capacity factors for the Tutel dMoE baseline.
#: Not reported by the paper; chosen so the memory model reproduces the
#: Tutel column of Table 3 (see module docstring).
TUTEL_PEAK_CAPACITY_FACTOR = {"XS": 6.0, "Small": 12.0, "Medium": 30.0}


@dataclass
class MemoryBreakdown:
    """Per-GPU bytes by category for one micro batch size."""

    weights_bytes: float
    activation_bytes: float
    logit_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.weights_bytes + self.activation_bytes + self.logit_bytes


def dense_weight_bytes(config: TransformerConfig) -> float:
    """Training-state bytes for a data-parallel dense model (replicated)."""
    return config.num_parameters * TRAINING_BYTES_PER_PARAM


def moe_weight_bytes(config: MoEConfig, expert_parallel: int) -> float:
    """Training-state bytes per GPU with expert parameters sharded."""
    expert_params = config.num_layers * config.expert_params_per_layer
    shared_params = config.num_parameters - expert_params
    return (
        shared_params + expert_params / expert_parallel
    ) * TRAINING_BYTES_PER_PARAM


def dense_activation_bytes(config: TransformerConfig, micro_batch: int) -> float:
    """Stored activations for one micro batch of a dense model."""
    s, b, h = config.seq_len, micro_batch, config.hidden_size
    a = config.num_heads
    per_layer = (ATTN_LN_COEF + FFN_COEF) * s * b * h + ATTN_QUADRATIC_COEF * a * s * s * b
    return per_layer * config.num_layers


def moe_activation_bytes(
    config: MoEConfig, micro_batch: int, expansion: float
) -> float:
    """Stored activations for one micro batch of an MoE model.

    ``expansion`` is processed-tokens / input-tokens in the expert MLPs:
    ``top_k * capacity_factor`` for the padding formulation, or
    ``top_k * (1 + block padding overhead)`` for MegaBlocks.
    """
    s, b, h = config.base.seq_len, micro_batch, config.hidden_size
    a = config.base.num_heads
    per_layer = (
        ATTN_LN_COEF * s * b * h
        + MOE_FFN_COEF * expansion * s * b * h
        + ATTN_QUADRATIC_COEF * a * s * s * b
    )
    return per_layer * config.num_layers


def logit_bytes(config: TransformerConfig, micro_batch: int) -> float:
    return LOGIT_COEF * config.seq_len * micro_batch * config.vocab_size


def dense_memory(config: TransformerConfig, micro_batch: int) -> MemoryBreakdown:
    return MemoryBreakdown(
        weights_bytes=dense_weight_bytes(config),
        activation_bytes=dense_activation_bytes(config, micro_batch),
        logit_bytes=logit_bytes(config, micro_batch),
    )


def moe_memory(
    config: MoEConfig,
    micro_batch: int,
    expansion: float,
    expert_parallel: int = 8,
) -> MemoryBreakdown:
    return MemoryBreakdown(
        weights_bytes=moe_weight_bytes(config, expert_parallel),
        activation_bytes=moe_activation_bytes(config, micro_batch, expansion),
        logit_bytes=logit_bytes(config.base, micro_batch),
    )


def max_micro_batch(
    memory_fn,
    capacity_bytes: float = USABLE_BYTES_A100,
    max_batch: int = 512,
) -> Optional[int]:
    """Largest power-of-two micro batch whose ``memory_fn(b)`` fits.

    ``memory_fn`` maps a micro batch size to a :class:`MemoryBreakdown`.
    Returns ``None`` when even a single sequence does not fit.
    """
    best = None
    b = 1
    while b <= max_batch:
        if memory_fn(b).total_bytes <= capacity_bytes:
            best = b
        b *= 2
    return best


def megablocks_expansion(top_k: int, block_padding_overhead: float = 0.01) -> float:
    """Token expansion for the dropless formulation: only block rounding.

    With thousands of tokens per expert and 128-row blocks the rounding
    overhead is on the order of a percent (paper §5.2).
    """
    return top_k * (1.0 + block_padding_overhead)


def tutel_expansion(top_k: int, peak_capacity_factor: float) -> float:
    """Token expansion for the padding formulation at its memory peak."""
    return top_k * peak_capacity_factor
