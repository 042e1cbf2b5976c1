"""Inference serving: KV-cached decode, continuous batching, int8 experts.

The serving stack (see ``docs/serving.md``):

- :mod:`repro.serving.kernels` — the row-stable GEMM and attention
  references (einsum's accumulation order, which the kernel table's
  serving entries run in C) and the direct faces the plan falls back on.
  NumPy's BLAS-backed ``matmul`` rounds differently for different row
  counts, so KV-cached decode could never be bit-identical to a
  full-window forward through the training kernels.
- :mod:`repro.serving.kv_cache` — per-layer K/V caches in NumPy
  buffers the cache owns, outside the training step's buffer arena.
- :mod:`repro.serving.engine` — :class:`InferenceEngine`: prefill /
  single-token decode / cached ``generate`` over any ``TransformerLM``.
- :mod:`repro.serving.plan` — the serving plan every prefill and decode
  step replays: the model's calls bound once per cache, for every row
  count.
- :mod:`repro.serving.scheduler` — continuous batching: admit queued
  prompts into the in-flight decode batch, evict finished sequences,
  token-budget admission, TTFT / per-token latency through the PR 4
  metrics registry.
- :mod:`repro.serving.quantize` — per-output-channel symmetric int8
  expert weights (4x weight-byte reduction), dequantize-on-GEMM.
- :mod:`repro.utils.sampling` — greedy / temperature / top-k token
  sampling, shared with ``TransformerLM.generate``.

This ``__init__`` is import-light: attribute access loads the engine,
scheduler and quantizer modules lazily (PEP 562).
"""

from typing import TYPE_CHECKING

_LAZY = {
    "InferenceEngine": "repro.serving.engine",
    "KVCache": "repro.serving.kv_cache",
    "LayerKV": "repro.serving.kv_cache",
    "ContinuousBatchingScheduler": "repro.serving.scheduler",
    "GenerationResult": "repro.serving.scheduler",
    "Request": "repro.serving.scheduler",
    "QuantizedExpertFFN": "repro.serving.quantize",
    "attach_quantized_experts": "repro.serving.quantize",
    "detach_quantized_experts": "repro.serving.quantize",
    "quantize_int8": "repro.serving.quantize",
    "sample_tokens": "repro.utils.sampling",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.serving' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)


def __dir__():
    return __all__


if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.serving.engine import InferenceEngine
    from repro.serving.kv_cache import KVCache, LayerKV
    from repro.serving.quantize import (
        QuantizedExpertFFN,
        attach_quantized_experts,
        detach_quantized_experts,
        quantize_int8,
    )
    from repro.utils.sampling import sample_tokens
    from repro.serving.scheduler import (
        ContinuousBatchingScheduler,
        GenerationResult,
        Request,
    )
