"""Int8 expert-weight quantization: error bounds, 4x bytes, attach/detach."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import inference_mode
from repro.configs.moe import MoEConfig
from repro.serving.engine import InferenceEngine
from repro.serving.quantize import (
    QuantizedExpertFFN,
    attach_quantized_experts,
    dequantize_int8,
    detach_quantized_experts,
    quantize_int8,
)

from tests.serving.conftest import MAX_SEQ, VOCAB, make_model


def test_quantize_roundtrip_error_bound():
    w = np.random.default_rng(0).normal(size=(3, 16, 24)).astype(np.float32)
    q, scale = quantize_int8(w)
    assert q.dtype == np.int8
    assert scale.shape == (3, 24)
    back = dequantize_int8(q, scale)
    # Symmetric round-to-nearest: error per entry <= scale/2 of its channel.
    err = np.abs(back - w)
    assert (err <= scale[:, None, :] / 2 + 1e-7).all()


def test_quantize_zero_channel_safe():
    w = np.zeros((4, 6), dtype=np.float32)
    w[:, 0] = [1, -2, 3, -4]
    q, scale = quantize_int8(w)
    assert (scale[1:] == 1.0).all()  # all-zero channels get scale 1, not 0/0
    assert np.array_equal(dequantize_int8(q, scale)[:, 1:], w[:, 1:])


def test_quantize_saturates_at_127():
    w = np.array([[1.0], [-1.0], [0.5]], dtype=np.float32)
    q, _ = quantize_int8(w)
    assert q.max() == 127 and q.min() == -127


def test_attach_report_4x_weight_bytes():
    model = make_model("dmoe")
    report = attach_quantized_experts(model)
    assert report["layers"] == 2
    assert report["int8_bytes"] < report["fp32_bytes"]
    # Weight bytes drop exactly 4x; the reported ratio also counts the
    # fp32 scales, whose relative overhead shrinks as min(H, F) grows
    # (for this tiny test model it is sizable, hence the loose bound).
    for blk in model.blocks:
        tbl = blk.ffn._quantized
        assert tbl.fp32_weight_bytes == 4 * (tbl.q1.nbytes + tbl.q2.nbytes)
    assert report["ratio"] > 3.5
    detach_quantized_experts(model)


def test_attach_is_idempotent():
    model = make_model("dmoe")
    attach_quantized_experts(model)
    tables = [blk.ffn._quantized for blk in model.blocks]
    attach_quantized_experts(model)
    for blk, tbl in zip(model.blocks, tables):
        assert blk.ffn._quantized is tbl  # second attach reuses, not rebuilds
    detach_quantized_experts(model)


@pytest.mark.parametrize("system", ["dmoe", "moe", "tutel-dmoe"])
def test_int8_engine_runs_and_detach_restores_fp32(system):
    model = make_model(system)
    prompts = np.random.default_rng(6).integers(0, VOCAB, size=(2, 5))
    with inference_mode():
        ref = model.forward(prompts).logits.data.copy()

    engine = InferenceEngine(model, quantize_experts="int8")
    assert engine.quant_report is not None
    assert engine.quant_report["layers"] == 2
    with inference_mode():
        quant = model.forward(prompts).logits.data.copy()
    assert np.isfinite(quant).all()
    # Quantization really changed the math, but not by much.
    assert not np.array_equal(quant, ref)
    assert np.abs(quant - ref).max() < 0.1

    detach_quantized_experts(model)
    with inference_mode():
        restored = model.forward(prompts).logits.data
    assert np.array_equal(restored, ref)  # fp32 weights were never touched


def _perplexity(model, ids) -> float:
    """Mean next-token perplexity under the inference kernels (f64 NLL)."""
    with inference_mode():
        logits = model.forward(ids).logits.data
    logits = logits[:, :-1, :].astype(np.float64)
    logits -= logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(logits).sum(axis=-1))
    tok = np.take_along_axis(logits, ids[:, 1:, None], axis=-1)[..., 0]
    return float(np.exp(-(tok - logz).mean()))


def test_int8_perplexity_delta_is_quantization_noise():
    """8 held-out rows, int8 experts against fp32.  A random-init model
    sits at perplexity ~ vocab whatever its experts compute, so a bound
    in percent cannot fail here: round-to-nearest int8 reads 5e-6
    relative, the same with its scales rounded to powers of two 8e-5 —
    2e-5 tells them apart."""
    model = make_model("dmoe")
    ids = np.random.default_rng(3).integers(0, VOCAB, size=(8, MAX_SEQ))
    fp32 = _perplexity(model, ids)
    attach_quantized_experts(model)
    int8 = _perplexity(model, ids)
    detach_quantized_experts(model)
    assert int8 != fp32
    assert abs(int8 - fp32) / fp32 < 2e-5


def test_int8_generate_end_to_end():
    model = make_model("dmoe", top_k=2)
    engine = InferenceEngine(model, quantize_experts="int8")
    out = engine.generate(
        np.array([[1, 2, 3]]), 8, temperature=0.9, top_k=5, rng=0
    )
    assert out.shape == (1, 11)
    assert out.min() >= 0 and out.max() < VOCAB
    detach_quantized_experts(model)


def test_engine_rejects_unknown_mode():
    model = make_model("dmoe")
    with pytest.raises(ValueError, match="quantize_experts"):
        InferenceEngine(model, quantize_experts="fp8")


def test_dense_model_attaches_nothing():
    model = make_model("dense")
    report = attach_quantized_experts(model)
    assert report == {
        "layers": 0, "fp32_bytes": 0, "int8_bytes": 0, "ratio": 0.0
    }


def test_moe_config_field_validation():
    from repro.configs.transformer import TransformerConfig

    base = TransformerConfig(name="T", hidden_size=64, num_layers=2)
    int8 = MoEConfig(name="M-int8", base=base, quantize_experts="int8")
    fp32 = MoEConfig(name="M", base=base)
    assert fp32.quantize_experts is None
    assert fp32.expert_weight_bytes_per_layer == 4 * int8.expert_weight_bytes_per_layer
    with pytest.raises(ValueError):
        MoEConfig(name="bad", base=base, quantize_experts="fp8")
