"""Inference-mode MoE dispatch: padding-free gather → expert GEMM → scatter.

The serving fast path shared by every MoE variant (``dMoE``,
``MoELayer``, ``DynamicCapacityMoELayer``).  Active only inside
:func:`repro.autograd.inference_mode`; the layers check the flag at the
top of ``forward`` and delegate here.  Compared to the training paths it
skips, in order:

- auxiliary-loss accumulation (the router drops it under the flag);
- tape construction (no_grad — zero nodes recorded);
- the block-sparse transpose-topology precompute of ``dMoE`` and the
  fixed-capacity dispatch buffer of ``MoELayer`` — per-decode-step
  tokens-per-expert is tiny and skewed (often 1–4 tokens spread over a
  few experts), where padding to blocks or to capacity wastes nearly
  all the compute.

Instead the dispatch is ScatterMoE-style and padding-free: a
``PaddedPlan`` at block size 1 (exact expert grouping, zero padding
rows), one product per occupied expert, and the outputs scattered back
weighted by router confidence.  A layer with the plain ``Router`` and
GELU experts runs it as the kernel table's ``serve_moe`` entry: three C
calls around one ``np.exp`` and one ``np.tanh``
(:mod:`repro.autograd.lower.kernels.serve`).  Its reference,
:func:`moe_forward_ref`, is the same steps in NumPy, the expert products
through :func:`repro.sparse.dispatch.grouped_rows_gemm` (one einsum per
group, fp32 and int8 tables alike); it is also the path of every layer
the entry does not take.

Two semantic notes:

- **Dropless everywhere.** ``MoELayer``'s capacity-based token dropping
  depends on how many tokens share the batch, which would make a
  sequence's logits depend on decode-batch composition — unacceptable
  for continuous batching (and bad for quality).  At inference every
  routed token-copy is computed, for every variant.
- **Bit-stability.** Every GEMM runs the row-stable accumulation order
  of :mod:`repro.serving.kernels` (each expert product per occupied
  expert, fp32 or int8), and top-k copies are combined in a fixed
  per-token expert-grouped order, so a token's output is bitwise
  independent of the other tokens in the batch — the KV-cached decode
  bit-identity rests on this.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import ACTIVATIONS
from repro.autograd.lower import runtime
from repro.autograd.lower import kernels
from repro.autograd.lower.kernels import serve
from repro.autograd.tensor import Tensor, inference_mode
from repro.moe.permute import make_padded_plan
from repro.moe.router import Router
from repro.observability.metrics import registry
from repro.observability.tracing import span
from repro.sparse.dispatch import grouped_rows_gemm

_native = runtime.direct(serve.MOE)
_gemm_ref = kernels.reference(serve.GEMM)
_GEMM_CALLS, _GEMM_FLOPS = (
    registry().counter(name) for name in ("serve_gemm_calls", "serve_gemm_flops")
)


def moe_inference_forward(layer, x: Tensor) -> Tuple[Tensor, Optional[Tensor]]:
    """Serving forward for any MoE layer; returns ``(output, None)``.

    ``layer`` duck-types the MoE interface: ``router``, ``experts``,
    ``num_experts``, ``activation``, and optionally ``_quantized`` (set
    by :func:`repro.serving.quantize.attach_quantized_experts`).  One
    call of the kernel table's ``serve_moe`` entry: three C calls around
    one ``np.exp`` and one ``np.tanh`` for a plain ``Router`` and GELU
    experts, else (or on a non-finite logit) :func:`moe_forward_ref`.
    """
    data = x.data
    rows = data.reshape(-1, data.shape[-1]) if data.ndim == 3 else data
    with span("moe_infer"):
        out = _native(layer, rows)
    return Tensor(out.reshape(data.shape) if data.ndim == 3 else out), None


def moe_forward_ref(layer, x: np.ndarray) -> np.ndarray:
    """The serving MoE layer over ``(tokens, hidden)`` rows in NumPy:
    ``serve_moe``'s reference, and the path of every layer it does not
    take.  Sets ``layer.last_routing``."""
    router = layer.router
    with inference_mode():
        with span("route"):
            if type(router) is Router:
                # The router's GEMM through the serve_gemm entry's NumPy
                # reference: the reference crosses into no C.
                with np.errstate(invalid="ignore", over="ignore"):
                    logits = _gemm_ref(x, router.proj.weight.data, None)
                _GEMM_CALLS.value += 1
                _GEMM_FLOPS.value += 2 * logits.size * x.shape[-1]
                routing = router.route(Tensor(logits))
            else:
                routing = router(Tensor(x))
        with span("dispatch"):
            plan = make_padded_plan(
                routing.expert_indices, layer.num_experts, block_size=1
            )
            # (E+1,) int64 row prefix sum over the grouped rows.
            offsets = np.zeros(layer.num_experts + 1, dtype=np.int64)
            np.cumsum(plan.tokens_per_expert, out=offsets[1:])
            xg = x[plan.gather_indices]
        with span("experts"):
            q, e = getattr(layer, "_quantized", None), layer.experts
            if q is None:
                w1, b1, s1 = e.w1.data, e.b1.data, None
                w2, b2, s2 = e.w2.data, e.b2.data, None
            else:
                w1, b1, s1, w2, b2, s2 = q.q1, q.b1, q.s1, q.q2, q.b2, q.s2
            h = grouped_rows_gemm(xg, offsets, w1, b1, scale=s1)
            h = ACTIVATIONS[layer.activation](Tensor(h)).data
            yg = grouped_rows_gemm(h, offsets, w2, b2, scale=s2)
        with span("combine"):
            weights = routing.expert_weights.data.reshape(-1)
            yg = yg * weights[plan.copy_indices][:, None]
            out = np.zeros_like(x)
            if plan.top_k == 1:
                out[plan.gather_indices] = yg
            else:
                # Accumulate top-k copies in expert-grouped order: for a
                # given token that order (its experts, ascending) does
                # not depend on the rest of the batch, so the sum is
                # batch-composition independent.
                np.add.at(out, plan.gather_indices, yg)
    layer.last_routing = routing
    return out
