"""Int8 expert-weight quantization for serving (4x weight-byte cut).

Per-output-channel symmetric quantization of the expert FFN weights
(``w1``/``w2`` only — they dominate MoE parameter bytes; biases, router,
attention, and embeddings stay fp32):

    scale[f] = max_i |w[i, f]| / 127
    q[i, f]  = clip(round(w[i, f] / scale[f]), -127, 127)   (int8)

Dequantization happens on the GEMM: ``y = (x @ q) * scale + b``.  The
kernel table's ``serve_moe`` entry runs a whole served MoE layer in C
and reads the int8 matrices as they are, converting in registers, so no
fp32 copy of the weights exists at any point; its NumPy reference
(:func:`repro.moe.inference.moe_forward_ref`, through
:func:`repro.sparse.dispatch.grouped_rows_gemm`) casts one expert's
``(in, out)`` matrix to fp32 per occupied group per call (transient,
never state) and produces the same bits.  Enabled either via
``MoEConfig(quantize_experts="int8")`` +
``InferenceEngine(..., quantize_experts="int8")`` or by calling
:func:`attach_quantized_experts` directly; only the inference dispatch
(:mod:`repro.moe.inference`) consults the attached tables, so training
numerics are untouched.

This path trades bit-exactness for memory: quantized logits differ from
fp32 logits by design.  The perplexity delta is bounded by
``tests/serving/test_quantize.py`` and tabulated in ``docs/serving.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.moe.experts import ExpertWeights


def quantize_int8(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output-channel symmetric int8 quantization of ``(..., in, out)``.

    Returns ``(q, scale)`` with ``q`` int8 of ``w``'s shape and ``scale``
    fp32 over the output channels (all axes but ``-2`` — for stacked
    expert weights ``(E, in, out)`` that is one scale per (expert,
    output-feature)).  All-zero channels get scale 1 to avoid 0/0.
    """
    w = np.asarray(w)
    amax = np.abs(w).max(axis=-2, keepdims=True)
    scale = (amax / 127.0).astype(np.float32)
    scale[scale == 0] = 1.0
    q = np.clip(np.rint(w / scale), -127, 127).astype(np.int8)
    return q, np.squeeze(scale, axis=-2)


def dequantize_int8(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Reconstruct fp32 weights (test/debug helper; the GEMM never does)."""
    return q.astype(np.float32) * np.expand_dims(scale, axis=-2)


@dataclass
class QuantizedExpertFFN:
    """Int8 expert FFN tables consumed by the inference dispatch.

    ``q1``/``q2`` are the int8 weights ``(E, H, F)`` / ``(E, F, H)``;
    ``s1``/``s2`` the fp32 per-output-channel scales ``(E, F)`` /
    ``(E, H)``.  Biases are fp32 references to the live parameters.
    """

    q1: np.ndarray
    s1: np.ndarray
    b1: np.ndarray
    q2: np.ndarray
    s2: np.ndarray
    b2: np.ndarray

    @classmethod
    def from_experts(cls, experts: ExpertWeights) -> "QuantizedExpertFFN":
        q1, s1 = quantize_int8(experts.w1.data)
        q2, s2 = quantize_int8(experts.w2.data)
        return cls(q1=q1, s1=s1, b1=experts.b1.data, q2=q2, s2=s2, b2=experts.b2.data)

    @property
    def weight_bytes(self) -> int:
        """Bytes held by the quantized tables (int8 weights + fp32 scales)."""
        return self.q1.nbytes + self.q2.nbytes + self.s1.nbytes + self.s2.nbytes

    @property
    def fp32_weight_bytes(self) -> int:
        """Bytes the fp32 ``w1``/``w2`` occupy (the replaced storage)."""
        return 4 * (self.q1.size + self.q2.size)


def _moe_layers(model) -> List[object]:
    """Every module that duck-types the MoE interface (router + experts)."""
    return [
        m
        for m in model.modules()
        if isinstance(getattr(m, "experts", None), ExpertWeights)
        and hasattr(m, "router")
    ]


def attach_quantized_experts(model) -> dict:
    """Quantize every MoE layer's expert FFN weights to int8.

    Sets ``layer._quantized`` on each MoE layer — the inference dispatch
    picks it up; training paths never look.  Idempotent.  Returns a
    report dict: ``{"layers", "fp32_bytes", "int8_bytes", "ratio"}``.
    ``int8_bytes`` includes the fp32 scales, so ``ratio`` lands slightly
    under the exact 4x of the weight bytes alone.
    """
    layers = _moe_layers(model)
    fp32_bytes = 0
    int8_bytes = 0
    for layer in layers:
        if getattr(layer, "_quantized", None) is None:
            layer._quantized = QuantizedExpertFFN.from_experts(layer.experts)
        fp32_bytes += layer._quantized.fp32_weight_bytes
        int8_bytes += layer._quantized.weight_bytes
    return {
        "layers": len(layers),
        "fp32_bytes": fp32_bytes,
        "int8_bytes": int8_bytes,
        "ratio": (fp32_bytes / int8_bytes) if int8_bytes else 0.0,
    }


def detach_quantized_experts(model) -> None:
    """Remove attached int8 tables; inference reverts to fp32 weights."""
    for layer in _moe_layers(model):
        if getattr(layer, "_quantized", None) is not None:
            layer._quantized = None
