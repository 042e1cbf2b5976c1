"""Bitwise shape-stable inference kernels: the GEMMs and attention.

The serving path promises logits from KV-cached single-token decode that
are *bit-identical* to an uncached full-window forward.  That promise is
impossible through the training kernels: NumPy's BLAS-backed ``matmul``
picks different blocking (and therefore different floating-point
summation orders) for different row counts, so ``(A @ B)[t]`` generally
differs in the last bit from ``A[t:t+1] @ B``.

The contract that makes a stable path possible is an *accumulation
order*, stated per output element::

    acc = +0.0f
    for k in 0 .. K-1:  acc = acc + x[i, k] * w[k, j]     (no FMA)
    y[i, j] = acc  (then ``* scale[j]``, then ``+ bias[j]``, each rounded)

Element ``(i, j)`` reads row ``i`` of ``x`` and column ``j`` of ``w`` and
nothing else, so a row's result cannot depend on how many other rows
share the call — row-stability by construction.  Two implementations
honour it:

- ``np.einsum("ij,jk->ik", x, w)`` for ``N > 1``: its iterator makes the
  output column the inner loop and walks ``k`` outside it, multiplying
  and adding unfused (the loop is built for the SSE baseline).  This is
  the *reference* and the fallback.
- the kernel table's serving family
  (:mod:`repro.autograd.lower.kernels.serve`): the same chain in C, in
  the process's one prelude (``-ffp-contract=off`` keeps the multiply
  and the add apart).  Vector lanes and register tiles run over ``i``
  and ``j`` only; a column's ``k`` chain is never reordered or
  reassociated, so the bits are einsum's.

Attention states its order the same way.  :func:`attention_rows` takes
every query row of a layer — all ``(sequence, position)`` rows of a
prefill, or the active slots of a decode step — and per row ``r`` and
head, over keys ``j < lengths[r]`` only::

    s_j = chain_k(q[k] * K[j, k]) * scale      (the chain above)
    x_j = s_j - max_j s_j
    e   = np.exp(x)                            (one contiguous buffer)
    p_j = e_j / chain_j(e_j)
    ctx = chain_j(p_j * V[j])                  (every chain from +0.0)

Two C calls run the steps around ``np.exp``, which both implementations
share; :func:`_attention_rows_ref` reproduces the rest bit for bit in
NumPy.  Keys are stored transposed (``(slots, heads, d, cap)``) so both
products stream contiguous rows.  Prefill and decode send the same rows
through the same code, so cached equals uncached and no row depends on
the rows beside it.

Each entry point is a thin caller of one direct table entry
(:func:`repro.autograd.lower.runtime.direct`) — ``serve_gemm``,
``attn_rows`` — which replaces, and is tested against, its reference
here (:func:`_linear_ref`, :func:`_attention_rows_ref`).  Two more are
the entries themselves: :data:`layer_norm` (``ln``'s direct face,
reference ``_LayerNorm.forward``) and :func:`bound_sample_rows`
(``serve_sample`` bound to one batch, reference
:func:`repro.serving.sampling.sample_rows`).  An entry binds on its
first call and must match its reference bit for bit on its check draws
before it serves anything; a missing toolchain, a failed compile or a
failed check pins it to the reference, and every such call through a
direct face counts in the table's ``lower_toolchain_fallbacks`` /
``lower_segment_fallbacks``.  A call the entry's contract does not admit
runs the reference by plan and counts nothing: an operand not
C-contiguous float32 or empty, or a GEMM with ``N == 1`` (einsum then
reduces over ``k`` with SIMD partial sums — a different order, kept as
is).  NaN *payloads* are outside the contract: which NaN survives
``NaN + NaN`` depends on operand order, which a compiler may swap.

The expert products of a served MoE layer are not here: ``serve_moe``
(:mod:`repro.moe.inference`) runs a whole layer in C, and its NumPy
reference runs them through
:func:`repro.sparse.dispatch.grouped_rows_gemm`, one einsum per group.

Left alone on purpose: :func:`stable_matmul_tb` (tied LM head — einsum's
``ij,kj`` order is a SIMD partial-sum reduction, row-stable but not this
chain).

Every GEMM through this module adds to the registry counters
``serve_gemm_calls`` / ``serve_gemm_flops``, every attention call to
``serve_attn_calls`` / ``serve_attn_flops`` (``4 * heads * d`` per key a
row reads); the table counts the calls that ran C
(``lower_direct_calls``).

Plain NumPy on plain arrays: no Tensor, no tape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.lower import runtime
from repro.autograd.lower.kernels import layernorm, serve
from repro.observability.metrics import registry
from repro.serving import sampling

_I64, _F4 = np.dtype(np.int64), np.dtype(np.float32)

_REG = registry()
# Resolved once: a serving call bumps handles and looks nothing up.
_GEMM_CALLS, _GEMM_FLOPS, _ATTN_CALLS, _ATTN_FLOPS = (
    _REG.counter(f"serve_{kind}_{what}")
    for kind in ("gemm", "attn")
    for what in ("calls", "flops")
)

_gemm = runtime.direct(serve.GEMM)
_attention = runtime.direct(serve.ATTENTION)
#: ``layer_norm(x, weight, bias, eps=1e-5)``: ``LayerNorm`` over the last
#: axis in one native call, the bits of ``_LayerNorm.forward`` (each row
#: from itself alone).
layer_norm = runtime.direct(layernorm.LN)
_DIRECT_CALLS = _REG.counter("lower_direct_calls")


def bound_sample_rows(gens, vocab: int, temperature: float, top_k):
    """``serve_sample`` bound to one batch — its generators ``gens``,
    ``vocab``-wide logits and one sampling setting — for a caller that
    samples that batch every step (the scheduler): ``sampler(logits)``
    draws the same tokens from the same streams as the reference,
    :func:`repro.serving.sampling.sample_rows` ``(logits, temperature,
    top_k, gens)``, with the entry's buffers and pointers bound once.
    The ids come back in an array the next call reuses.  Each call checks
    the entry's contract on its logits (a decode hands over a new array
    every step); a call the bound C does not take — greedy or a top-k
    cut, logits of another shape or dtype, a non-finite row — or one
    after the entry was pinned or bound again, is the reference's.

    ``sampler.bind(gens)`` moves the sampler to another batch of as many
    rows, on the same buffers; it returns ``False``, and moves nothing,
    once the entry was pinned or bound again (build a new sampler)."""
    held = runtime.binding(serve.SAMPLE)
    lib, rows = held[2], len(gens)
    step = None
    if lib is not None and temperature > 0 and (top_k is None or top_k >= vocab):
        step = serve.sample_step(lib, rows, vocab, temperature, gens)
    current, shape, strides = runtime.current_binding, (rows, vocab), (4 * vocab, 4)

    def sampler(logits):
        # The entry's contract at this batch's shape: C-contiguous
        # float32 (rows, vocab), one generator per row.
        if (
            step is not None and type(logits) is np.ndarray and logits.dtype is _F4
            and logits.shape == shape and logits.strides == strides
            and current(serve.SAMPLE) is held
        ):
            out = step(logits)
            if out is not False:
                _DIRECT_CALLS.value += 1
                return out
        return sampling.sample_rows(logits, temperature, top_k, gens)

    def bind(new) -> bool:
        nonlocal gens
        if current(serve.SAMPLE) is not held or len(new) != rows:
            return False
        gens = new
        if step is not None:
            step.bind(new)
        return True

    sampler.bind = bind
    return sampler


def work_summary(gemm_flops: int, attn_flops: int, seconds: float, wall: str) -> str:
    """Three lines for a serving report: the process's table calls that
    ran C and the table's fallbacks (GEMM and attention calls alike),
    then the GEMM and the attention FLOPs given (the caller's shares of
    ``serve_gemm_flops`` / ``serve_attn_flops``), each as a rate over the
    ``seconds`` of ``wall`` they were spent in."""
    value = lambda name: _REG.counter(name).value  # noqa: E731

    def rate(flops: int) -> str:
        gflop = flops / 1e9
        achieved = gflop / seconds if seconds > 0 else 0.0
        return f"{gflop:.3f}  achieved={achieved:.2f} GFLOP/s of {wall}"

    fallbacks = value("lower_toolchain_fallbacks") + value("lower_segment_fallbacks")
    return (
        f"kernel calls: native={value('lower_direct_calls')}  fallbacks={fallbacks}\n"
        f"gemm_calls={_GEMM_CALLS.value}  gemm_gflop={rate(gemm_flops)}\n"
        f"attn_calls={_ATTN_CALLS.value}  attn_gflop={rate(attn_flops)}"
    )


# ----------------------------------------------------------------------
# References: the contract in NumPy, the entries' oracles and fallbacks
# ----------------------------------------------------------------------
def _linear_ref(x, weight, bias=None):
    lead = x.shape[:-1]
    y = np.einsum("ij,jk->ik", x.reshape(-1, x.shape[-1]), weight)
    if bias is not None:
        y += bias
    return y.reshape(lead + (weight.shape[-1],))


def _bad_rows(kv_index: np.ndarray, lengths: np.ndarray, slots: int, cap: int):
    return ValueError(
        f"attention rows need 0 <= kv_index < {slots} and 1 <= lengths <= {cap}; "
        f"got kv_index in [{kv_index.min()}, {kv_index.max()}], "
        f"lengths in [{lengths.min()}, {lengths.max()}]"
    )


def _attention_rows_ref(q, k, v, kv_index, lengths, scale) -> np.ndarray:
    """The contract in NumPy, chain for chain.  Rows are padded to the
    longest length: padded keys are zeroed before any arithmetic, score
    ``-inf``, stay out of the buffer ``np.exp`` sees, and add exact zeros
    to the two chains after it (a chain from +0.0 never holds -0.0)."""
    rows, heads, d = q.shape
    slots, cap = k.shape[0], k.shape[3]
    if not (
        (kv_index >= 0).all() and (kv_index < slots).all()
        and (lengths >= 1).all() and (lengths <= cap).all()
    ):
        raise _bad_rows(kv_index, lengths, slots, cap)
    span = int(lengths.max()) if rows else 0
    live = np.arange(span) < lengths[:, None]
    kt = np.where(live[:, None, None], k[kv_index, ..., :span], 0)  # (R, H, d, span)
    vv = np.where(live[:, None, :, None], v[kv_index, :, :span], 0)  # (R, H, span, d)
    s = np.zeros((rows, heads, span), dtype=q.dtype)
    for c in range(d):
        s = s + q[:, :, c, None] * kt[:, :, c]
    s = s * q.dtype.type(scale)
    keep = np.broadcast_to(live[:, None], s.shape)
    s = np.where(keep, s, -np.inf)
    e = np.zeros_like(s)
    e[keep] = np.exp((s - s.max(axis=-1, keepdims=True))[keep])  # packed (row, head, j)
    den = np.zeros((rows, heads, 1), dtype=q.dtype)
    for j in range(span):
        den = den + e[:, :, j : j + 1]
    p = e / den
    ctx = np.zeros((rows, heads, d), dtype=q.dtype)
    for j in range(span):
        ctx = ctx + p[:, :, j, None] * vv[:, :, j]
    return ctx.reshape(rows, heads * d)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def stable_linear(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-stable ``x @ weight + bias`` over arbitrary leading dimensions
    (one native call: GEMM with the bias add as its epilogue)."""
    _GEMM_CALLS.value += 1
    _GEMM_FLOPS.value += 2 * x.size * weight.shape[-1]
    return _gemm(x, weight, bias)


def stable_matmul_tb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` for 2-D operands, row-stable (used by the tied LM head).

    Stays on einsum: its ``ij,kj`` order sums SIMD partial sums over the
    contiguous ``j``, which is not the strict chain the C family runs."""
    _GEMM_CALLS.value += 1
    _GEMM_FLOPS.value += 2 * a.size * b.shape[0]
    return np.einsum("ij,kj->ik", a, b)


def attention_rows(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kv_index: np.ndarray,
    lengths: np.ndarray,
    scale: float,
) -> np.ndarray:
    """Causal attention for a batch of query rows, each against its own
    slot's first ``lengths[r]`` keys; returns ``(rows, heads * d)``.

    ``q`` is ``(rows, heads, d)``; ``k`` holds keys transposed,
    ``(slots, heads, d, cap)`` (``k[b, h, :, j]`` is key ``j``); ``v`` is
    ``(slots, heads, cap, d)``; row ``r`` reads slot ``kv_index[r]``.  A
    prefill passes all ``(sequence, position)`` rows with
    ``lengths = t + 1``, a decode step its active slots with
    ``lengths = positions + 1``: the same rows through the same code, so
    cached equals uncached and no row depends on its neighbours.

    Per row and head (every chain from +0.0, ascending, each multiply and
    add rounded): ``s_j = chain_k(q[k] * K[j, k]) * scale``;
    ``x_j = s_j - max_j s_j``; ``e = np.exp(x)`` over one contiguous
    buffer; ``p_j = e_j / chain_j(e_j)``; ``ctx = chain_j(p_j * V[j])``.
    Keys at or past ``lengths[r]`` are never read.  Raises ``ValueError``
    unless ``0 <= kv_index < slots`` and ``1 <= lengths <= cap``.
    """
    kv_index = np.ascontiguousarray(kv_index, dtype=_I64)
    lengths = np.ascontiguousarray(lengths, dtype=_I64)
    out = _attention(q, k, v, kv_index, lengths, scale)
    _ATTN_CALLS.value += 1
    _ATTN_FLOPS.value += 4 * q.shape[1] * q.shape[2] * int(lengths.sum())
    return out
