"""Model configurations and FLOP accounting from the paper's tables."""

from repro.configs.transformer import (
    TABLE1,
    TABLE1_EXPECTED,
    TRANSFORMER_LARGE,
    TRANSFORMER_MEDIUM,
    TRANSFORMER_SMALL,
    TRANSFORMER_XL,
    TRANSFORMER_XS,
    TransformerConfig,
)
from repro.configs.moe import (
    EXPERT_PARALLEL_WAYS,
    GLOBAL_BATCH_SIZE,
    MOE_MEDIUM,
    MOE_SMALL,
    MOE_XS,
    NUM_GPUS,
    TABLE2,
    TABLE2_EXPECTED,
    TABLE3_MICRO_BATCH_SIZES,
    TRAIN_TOKENS,
    MoEConfig,
)
from repro.configs.flops import (
    moe_train_flops,
    transformer_train_flops,
    transformer_train_gflops,
)

__all__ = [
    "TransformerConfig",
    "MoEConfig",
    "TABLE1",
    "TABLE1_EXPECTED",
    "TABLE2",
    "TABLE2_EXPECTED",
    "TABLE3_MICRO_BATCH_SIZES",
    "TRANSFORMER_XS",
    "TRANSFORMER_SMALL",
    "TRANSFORMER_MEDIUM",
    "TRANSFORMER_LARGE",
    "TRANSFORMER_XL",
    "MOE_XS",
    "MOE_SMALL",
    "MOE_MEDIUM",
    "GLOBAL_BATCH_SIZE",
    "NUM_GPUS",
    "EXPERT_PARALLEL_WAYS",
    "TRAIN_TOKENS",
    "transformer_train_flops",
    "transformer_train_gflops",
    "moe_train_flops",
]
