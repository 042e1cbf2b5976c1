"""FLOP accounting using the expression from Narayanan et al. (2021b).

Table 1's caption states FLOPs are computed "with a single sequence";
fitting the published numbers shows the paper uses the forward+backward
form *without* activation recomputation:

``F = 72 * B * s * l * h^2 * (1 + s/(6h)) + 6 * B * s * V * h``

(the recompute variant replaces 72 with 96).  The regression tests check
this reproduces every Table 1/2 entry to within rounding.
"""

from __future__ import annotations

from repro.configs.transformer import TransformerConfig


def transformer_train_flops(
    config: TransformerConfig, batch_size: int = 1
) -> float:
    """Forward+backward FLOPs for ``batch_size`` sequences."""
    b = batch_size
    s = config.seq_len
    h = config.hidden_size
    l = config.num_layers
    v = config.vocab_size
    body = 72.0 * b * s * l * h * h * (1.0 + s / (6.0 * h))
    vocab = 6.0 * b * s * v * h
    return body + vocab


def transformer_train_gflops(config: TransformerConfig, batch_size: int = 1) -> float:
    return transformer_train_flops(config, batch_size) / 1e9


def moe_train_flops(
    config: TransformerConfig,
    top_k: int = 1,
    capacity_factor: float = 1.0,
    batch_size: int = 1,
) -> float:
    """Training FLOPs for the MoE variant of ``config``.

    With top-1 routing and capacity factor 1 this equals the dense count
    (each token still visits one expert of the original FFN shape), which
    is why Table 2 repeats Table 1's GFLOPs.  Larger ``top_k`` or
    ``capacity_factor`` scale only the FFN term — the computational
    overhead of padding quantified in §3.
    """
    b = batch_size
    s = config.seq_len
    h = config.hidden_size
    l = config.num_layers
    v = config.vocab_size
    # Split the 72 l h^2 (1 + s/6h) body into FFN (48 l h^2) and
    # attention (24 l h^2 (1 + s/(2h)))  [both fwd+bwd].
    ffn = 48.0 * b * s * l * h * h * (top_k * capacity_factor)
    attn = 24.0 * b * s * l * h * h * (1.0 + s / (2.0 * h))
    vocab = 6.0 * b * s * v * h
    return ffn + attn + vocab
