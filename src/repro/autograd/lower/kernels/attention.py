"""Fused attention core and the last-axis softmax.

Matmuls stay NumPy (``np.matmul`` into arena buffers, as the eager op
issues them) and so does ``np.exp``; the masked-softmax chains around
them run in C.  Row maxima are exact selection (order-free; NaN
propagates like ``np.maximum.reduce``) and row sums are NumPy's
pairwise reduction, so every stage matches the eager ufunc bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import arena
from repro.autograd import ops_fused as _F
from repro.autograd import ops_nn as _N
from repro.autograd.lower.kernels.base import (
    F4, Arr, Capture, Const, Contract, Kernel, Live, Rel, f32, frozen,
    matmul_into, rows_width,
)
from repro.autograd.ops_fused import _release_unless_aliased

_ATTN_C = r"""
/* _AttentionCore masked-softmax forward, pre-exp: scale, mask to -1e9,
   subtract the row max.  The max is exact selection (order-free; NaN
   propagates like np.maximum.reduce), so only np.exp stays NumPy.
   The +-0 ambiguity of a tied-zero row max is absorbed by exp(+-0)=1. */
void repro_attn_fwd1_f32(const float *restrict scores,
                         const unsigned char *restrict mask,
                         float *restrict buf,
                         i64 rows, i64 S, double scale_)
{
    const float sc = (float)scale_;
    const float NEG = (float)-1e9;
    for (i64 r = 0; r < rows; r++) {
        const float *sr = scores + r * S;
        const unsigned char *mr = mask + (r % S) * S;
        float *br = buf + r * S;
        for (i64 j = 0; j < S; j++) {
            float v = sr[j] * sc;
            if (!mr[j]) v = NEG;
            br[j] = v;
        }
        float m = br[0];
        for (i64 j = 1; j < S; j++) {
            float v = br[j];
            if (isnan(v) || v > m) m = v;
        }
        for (i64 j = 0; j < S; j++) br[j] = br[j] - m;
    }
}

/* _AttentionCore masked-softmax forward, post-exp: divide each row by
   its pairwise sum (NumPy's last-axis reduction). */
void repro_attn_fwd2_f32(float *restrict buf, i64 rows, i64 S)
{
    for (i64 r = 0; r < rows; r++) {
        float *br = buf + r * S;
        float s = pw32(br, S);
        for (i64 j = 0; j < S; j++) br[j] = br[j] / s;
    }
}

/* _AttentionCore masked-softmax backward: the ``_MaskedSoftmax`` chain
   (g*p, pairwise row dot, p*(g - dot), mask to 0, scale) in one pass;
   ``out`` doubles as the product scratch for the pairwise dot. */
void repro_attn_bwd_f32(const float *restrict gp, const float *restrict probs,
                        const unsigned char *restrict mask,
                        float *restrict out,
                        i64 rows, i64 S, double scale_)
{
    const float sc = (float)scale_;
    for (i64 r = 0; r < rows; r++) {
        const float *gr = gp + r * S;
        const float *pr = probs + r * S;
        const unsigned char *mr = mask + (r % S) * S;
        float *orow = out + r * S;
        for (i64 j = 0; j < S; j++) orow[j] = gr[j] * pr[j];
        float dot = pw32(orow, S);
        for (i64 j = 0; j < S; j++) {
            float v = gr[j] - dot;
            v = pr[j] * v;
            if (!mr[j]) v = 0.0f;
            orow[j] = v * sc;
        }
    }
}
"""

_SOFTMAX_C = r"""
/* Softmax stage 1 (last axis): subtract the NaN-propagating row max
 * into buf.  np.exp runs in the Python runner between the two stages
 * (transcendentals stay NumPy for bit-identity); stage 2 reuses
 * repro_attn_fwd2_f32 (pairwise row sum + divide in place). */
void repro_softmax_fwd1_f32(const float *restrict x, float *restrict buf,
                            i64 rows, i64 n)
{
    for (i64 r = 0; r < rows; r++) {
        const float *xr = x + r * n;
        float *br = buf + r * n;
        /* >= not >: np.maximum returns its second operand on ties, so
         * the reduction keeps the LAST equal element — observable only
         * through signed zeros (and washed out by the exp that follows,
         * but the stage must match the eager subtract bit for bit). */
        float m = xr[0];
        for (i64 j = 1; j < n; j++) {
            float v = xr[j];
            if (isnan(v) || v >= m) m = v;
        }
        for (i64 j = 0; j < n; j++) br[j] = xr[j] - m;
    }
}

/* _Softmax.backward: buf = out * (g - sum(g * out)) per row, with the
 * dot taken pairwise over the g*out products exactly like the
 * keepdims row sum of the eager multiply/sum/subtract/multiply
 * sequence. */
void repro_softmax_bwd_f32(const float *restrict g,
                           const float *restrict out,
                           float *restrict buf, i64 rows, i64 n)
{
    for (i64 r = 0; r < rows; r++) {
        const float *gr = g + r * n;
        const float *pr = out + r * n;
        float *br = buf + r * n;
        for (i64 j = 0; j < n; j++) br[j] = gr[j] * pr[j];
        float dot = pw32(br, n);
        for (i64 j = 0; j < n; j++) br[j] = pr[j] * (gr[j] - dot);
    }
}
"""


def _attn_forward(b):
    scale = float(b.rec.specs[2][1])
    cfn1 = b.lib.repro_attn_fwd1_f32
    cfn2 = b.lib.repro_attn_fwd2_f32
    # qkv is pinned and the head split frozen: the saved dims are one
    # object, which the backward's guard holds like its arrays.
    batch, seq, _ = b.shape(0)
    nh, hd = b.rec.specs[3][1], b.rec.specs[4][1]
    dims = (batch, seq, nh, hd)
    rows = batch * nh * seq
    scores_shape, ctx_shape = (batch, nh, seq, seq), (batch, nh, seq, hd)
    ptr = b.operands.args
    held, at, hold = b.holds(2)

    def run(qkv, mask, scale_obj, *_heads):
        qkv5 = qkv.reshape(batch, seq, 3, nh, hd).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv5[0], qkv5[1], qkv5[2]
        scores = matmul_into(q, k.transpose(0, 1, 3, 2), scores_shape)
        probs = arena.empty(scores_shape, F4)
        pp = at[1] if probs is held[1] else hold(1, probs)
        cfn1(at[0] if scores is held[0] else hold(0, scores), ptr[1], pp,
             rows, seq, scale)
        np.exp(probs, out=probs)
        cfn2(pp, rows, seq)
        arena.release(scores)
        ctx4 = matmul_into(probs, v, ctx_shape)
        merged = arena.reshaped(
            ctx4.transpose(0, 2, 1, 3), (batch, seq, nh * hd)
        )
        _release_unless_aliased(ctx4, merged)
        return (qkv, probs, mask, scale_obj, dims), merged

    return run


def _attn_backward(b):
    cfn = b.lib.repro_attn_bwd_f32
    ptr = b.operands.args
    held, at, hold = b.holds(2)

    def run(grad, qkv, probs, mask, scale, dims):
        batch, seq, num_heads, head_dim = dims
        qkv5 = qkv.reshape(batch, seq, 3, num_heads, head_dim).transpose(
            2, 0, 3, 1, 4
        )
        q, k, v = qkv5[0], qkv5[1], qkv5[2]
        g_ctx = np.transpose(
            arena.reshaped(grad, (batch, seq, num_heads, head_dim)),
            (0, 2, 1, 3),
        )
        scores_shape = (batch, num_heads, seq, seq)
        ctx_shape = (batch, num_heads, seq, head_dim)
        g_probs = matmul_into(g_ctx, v.swapaxes(-1, -2), scores_shape)
        g_v = matmul_into(probs.swapaxes(-1, -2), g_ctx, ctx_shape)
        if not g_probs.flags.c_contiguous:
            return None
        g_scores = arena.empty(scores_shape, F4)
        cfn(at[0] if g_probs is held[0] else hold(0, g_probs), ptr[2], ptr[3],
            at[1] if g_scores is held[1] else hold(1, g_scores),
            batch * num_heads * seq, seq, float(scale))
        arena.release(g_probs)
        g_q = matmul_into(g_scores, k, ctx_shape)
        g_kt = matmul_into(
            q.swapaxes(-1, -2), g_scores, (batch, num_heads, head_dim, seq)
        )
        arena.release(g_scores)
        g_k = g_kt.transpose(0, 1, 3, 2)
        g5 = arena.empty((3, batch, num_heads, seq, head_dim), grad.dtype)
        np.copyto(g5[0], g_q)
        np.copyto(g5[1], g_k)
        np.copyto(g5[2], g_v)
        np.add(g5, 0.0, out=g5)
        arena.release(g_q)
        arena.release(g_kt)
        arena.release(g_v)
        g_qkv = arena.reshaped(
            np.transpose(g5, (1, 3, 0, 2, 4)),
            (batch, seq, 3 * num_heads * head_dim),
        )
        _release_unless_aliased(g5, g_qkv)
        return (g_qkv,)

    return run


def _softmax_forward(b):
    shape = b.shape(0)
    rows, n = rows_width(shape)
    axis = b.const(1, "axis", -1)
    cfn1 = b.lib.repro_softmax_fwd1_f32
    cfn2 = b.lib.repro_attn_fwd2_f32  # pairwise row sum + divide in place
    ptr = b.operands.args
    held, at, hold = b.holds(1)

    def run(x, *_axis):
        buf = arena.empty(shape, F4)
        pb = at[0] if buf is held[0] else hold(0, buf)
        cfn1(ptr[0], pb, rows, n)
        np.exp(buf, out=buf)
        cfn2(pb, rows, n)
        return (buf, axis), buf

    return run


def _softmax_backward(b):
    cfn = b.lib.repro_softmax_bwd_f32
    ptr = b.operands.args
    held, at, hold = b.holds(1)

    def run(g, out, axis):
        n = out.shape[-1]
        buf = arena.empty(g.shape, F4)
        cfn(ptr[0], ptr[1], at[0] if buf is held[0] else hold(0, buf),
            g.size // n, n)
        return (buf,)

    return run


def _fuzz_attn(rng):
    batch, seq, nh, hd = 2, 5, 2, 4
    mask = np.tril(np.ones((seq, seq), bool))
    return f32(rng, batch, seq, 3 * nh * hd), mask, np.float32(hd ** -0.5), nh, hd


KERNELS = (
    Kernel(
        "attn", _F._AttentionCore,
        source=_ATTN_C,
        contract=Contract(
            Arr(0, rank=3, pin=True),
            Arr(1, "b"),
            Const(2), Const(3), Const(4),
            Rel("a seq x seq mask", lambda qkv, mask, *_: (
                mask.size == qkv.shape[1] ** 2
            )),
        ),
        forward=_attn_forward,
        bwd_guard=Contract(
            Arr(0),
            Arr(2, rank=4),
            Arr(3, "b"),
            Rel("seq x seq mask, (batch, heads, seq, seq) probs",
                lambda g, qkv, probs, mask, scale, dims: (
                    mask.size == dims[1] ** 2
                    and probs.shape == (dims[0], dims[2], dims[1], dims[1])
                )),
        ),
        backward=_attn_backward,
        fuzz=_fuzz_attn,
    ),
    Kernel(
        "softmax", _N._Softmax,
        source=_SOFTMAX_C,
        contract=Contract(
            Arr(0, pin=True),
            Const(1, optional=True),
            Capture("over the last axis", lambda rec, v: (
                v[0].ndim >= 1
                and frozen(rec, 1, "axis", -1) in (-1, v[0].ndim - 1)
            )),
        ),
        forward=_softmax_forward,
        bwd_name="softmax2",
        bwd_guard=Contract(
            Arr(0),
            Arr(1),
            Rel("one grad per probability", lambda g, out, axis: (
                g.shape == out.shape and out.ndim >= 1 and out.shape[-1] >= 1
            )),
            Live("over the last axis", lambda g, out, axis: (
                axis in (-1, out.ndim - 1)
            )),
        ),
        backward=_softmax_backward,
        fuzz=lambda rng: (f32(rng, 6, 9),),
    ),
)
