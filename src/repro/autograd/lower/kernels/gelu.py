"""Bias + GELU: the block-sparse expert activation and the dense one.

The tanh term is saved by forward, so both backwards are plain f32
elementwise chains — C replicas of the chainable ``_gelu_bwd`` ufunc
sequence (the guards' single shared f32 dtype implies ``_chainable``
would have picked that sequence, so bit-identity holds; contiguity is
what the flat C loops themselves need).  ``np.tanh`` is the one
transcendental that must stay NumPy, so the sparse forward is two C
stages around it.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import arena
from repro.autograd import ops_fused as _F
from repro.autograd.function import unbroadcast
from repro.autograd.lower.kernels.base import (
    F4, I64, OUT, Arr, Contract, Kernel, Live, Rel, addr, f32,
)
from repro.autograd.lower.kernels.grouped import blocks_of, fuzz_topology
from repro.autograd.ops_nn import _GELU_C
from repro.sparse import autograd_ops as _S

_K044 = 0.044715
_K3 = float(3 * 0.044715)
_C = float(_GELU_C)

_BIASGELU_C = r"""
/* GELU (tanh approximation) backward, fused mirror of the chainable
   in-place ufunc sequence in ops_fused._gelu_bwd — the tanh term t is
   saved by forward, so the whole chain is plain f32 arithmetic.  k_ and
   c_ arrive as the Python-float scalars NumPy would cast per NEP 50
   (3*0.044715 and sqrt(2/pi)); the (float) casts here are those casts. */
void repro_gelu_bwd_f32(const float *restrict g, const float *restrict a,
                        const float *restrict t, float *restrict out,
                        i64 n, double k_, double c_)
{
    const float K = (float)k_;
    const float C = (float)c_;
    for (i64 i = 0; i < n; i++) {
        float ai = a[i], ti = t[i];
        float d = ai * ai;
        d = K * d;
        d = 1.0f + d;
        d = C * d;
        float u = ti * ti;
        u = 1.0f - u;
        float v = 0.5f * ai;
        v = v * u;
        v = v * d;
        float w = 1.0f + ti;
        w = 0.5f * w;
        w = w + v;
        out[i] = g[i] * w;
    }
}
"""

_SBGELU_C = r"""
/* Structural-zero rows.  The block-sparse bias/GELU kernels below take
   ``rl``: the number of live rows inside each nonzero block (the
   ``LiveLayout.block_rows`` of repro.sparse.dispatch; ``bs`` everywhere
   for a topology that does not know its live rows).  They compute rows
   [0, rl[n]) of block n and store +0.0f into rows [rl[n], bs) of every
   buffer they write — the same rows, and the same zeros, as the NumPy
   ops in repro.sparse.autograd_ops. */

/* _SparseBiasGelu backward with the per-block column sum of
   ``_segment_reduce_bias_grad`` fused into the same pass: colsum[n,j] =
   sum_{i < rl[n]} out[n,i,j], accumulated sequentially over i exactly as
   NumPy reduces a middle axis (valid for bs > 1; callers guard); a block
   with no live row sums to +0.0f. */
void repro_gelu_bwd_colsum_f32(const float *restrict g,
                               const float *restrict a,
                               const float *restrict t, float *restrict out,
                               float *restrict colsum,
                               const i64 *restrict rl,
                               i64 nnz, i64 bs, double k_, double c_)
{
    const float K = (float)k_;
    const float C = (float)c_;
    for (i64 n = 0; n < nnz; n++) {
        const float *gb = g + n * bs * bs;
        const float *ab = a + n * bs * bs;
        const float *tb = t + n * bs * bs;
        float *ob = out + n * bs * bs;
        float *cs = colsum + n * bs;
        i64 rows = rl[n];
        if (rows == 0)
            memset(cs, 0, (size_t)bs * sizeof(float));
        for (i64 i = 0; i < rows; i++) {
            for (i64 j = 0; j < bs; j++) {
                float ai = ab[i * bs + j], ti = tb[i * bs + j];
                float d = ai * ai;
                d = K * d;
                d = 1.0f + d;
                d = C * d;
                float u = ti * ti;
                u = 1.0f - u;
                float v = 0.5f * ai;
                v = v * u;
                v = v * d;
                float w = 1.0f + ti;
                w = 0.5f * w;
                w = w + v;
                float o = gb[i * bs + j] * w;
                ob[i * bs + j] = o;
                if (i == 0) cs[j] = o;
                else cs[j] += o;
            }
        }
        memset(ob + rows * bs, 0, (size_t)((bs - rows) * bs) * sizeof(float));
    }
}

/* _SparseBiasGelu forward, stage 1: per-block bias add (the
   ``bias.reshape(block_cols, bs)[column_indices]`` gather folded in)
   plus the pre-tanh polynomial of ``_gelu_fwd``.  ``a`` is the saved
   activation input; ``inner`` receives C*(a + 0.044715*a^3) and is
   tanh'd in place by NumPy between the two stages (np.tanh is the one
   transcendental that must stay NumPy for bit-identity; the pad rows
   hold +0.0 and stay +0.0 through it). */
void repro_sbgelu_fwd1_f32(const float *restrict values,
                           const float *restrict bias,
                           const i64 *restrict colidx,
                           const i64 *restrict rl, float *restrict a,
                           float *restrict inner,
                           i64 nnz, i64 bs, double k044_, double c_)
{
    const float K = (float)k044_;
    const float C = (float)c_;
    for (i64 n = 0; n < nnz; n++) {
        const float *vb = values + n * bs * bs;
        const float *brow = bias + colidx[n] * bs;
        float *ab = a + n * bs * bs;
        float *ib = inner + n * bs * bs;
        i64 rows = rl[n];
        for (i64 i = 0; i < rows; i++) {
            for (i64 j = 0; j < bs; j++) {
                float av = vb[i * bs + j] + brow[j];
                ab[i * bs + j] = av;
                float tmp = av * av;
                tmp = tmp * av;
                tmp = K * tmp;
                tmp = av + tmp;
                ib[i * bs + j] = C * tmp;
            }
        }
        size_t pad = (size_t)((bs - rows) * bs) * sizeof(float);
        memset(ab + rows * bs, 0, pad);
        memset(ib + rows * bs, 0, pad);
    }
}

/* _SparseBiasGelu forward, stage 2 (post-tanh): out = (0.5*a) * (1 + t)
   over the live rows of each block. */
void repro_gelu_posttanh_f32(const float *restrict a,
                             const float *restrict t, float *restrict out,
                             const i64 *restrict rl, i64 nnz, i64 bs)
{
    for (i64 n = 0; n < nnz; n++) {
        const float *ab = a + n * bs * bs;
        const float *tb = t + n * bs * bs;
        float *ob = out + n * bs * bs;
        i64 live = rl[n] * bs;
        for (i64 i = 0; i < live; i++) {
            float w = 1.0f + tb[i];
            float v = 0.5f * ab[i];
            ob[i] = v * w;
        }
        memset(ob + live, 0, (size_t)(bs * bs - live) * sizeof(float));
    }
}

/* The reduceat tail of _segment_reduce_bias_grad: per-segment sums of
 * colsum rows walked in transpose-permutation order.  np.add.reduceat
 * reduces each segment as first + pairwise(rest) — a single-row
 * segment is copied, never added to 0.0f (that would flip -0.0).
 * tstart has ns+1 entries (the nonempty segment starts plus the total
 * block count); nerow[t] is the destination row of segment t; rows
 * not named by nerow keep the caller's zero fill. */
void repro_segsum_tr_f32(const float *restrict colsum,
                         const i64 *restrict tbo,
                         const i64 *restrict nerow,
                         const i64 *restrict tstart,
                         float *restrict gbias, i64 ns, i64 bs)
{
    for (i64 t = 0; t < ns; t++) {
        i64 s = tstart[t], len = tstart[t + 1] - s;
        float *o = gbias + nerow[t] * bs;
        const float *r0 = colsum + tbo[s] * bs;
        if (len == 1) {
            for (i64 j = 0; j < bs; j++) o[j] = r0[j];
        } else {
            for (i64 j = 0; j < bs; j++)
                o[j] = r0[j] + pw32g(colsum, tbo, s + 1, len - 1, bs, j);
        }
    }
}
"""


def tr_segments(topo, nonempty, starts):
    """Flat int64 ``(transpose_block_offsets, nonempty_rows, extended
    starts)`` triple for :c:func:`repro_segsum_tr_f32`, memoized in the
    topology's memo like the dispatch plan.  ``starts`` gains one
    trailing entry — the total block count — so segment ``t`` always
    spans ``[starts[t], starts[t+1])``."""
    cached = topo.memo.get("lower_tr_segments")
    if cached is None:
        tbo = np.ascontiguousarray(topo.transpose_block_offsets, I64)
        ne = np.ascontiguousarray(nonempty, I64)
        st = np.empty(len(starts) + 1, I64)
        st[:-1] = starts
        st[-1] = topo.nnz_blocks
        cached = topo.memo["lower_tr_segments"] = (tbo, ne, st)
    return cached


def _sbgelu_forward(b):
    from repro.sparse.dispatch import live_layout

    cfn1 = b.lib.repro_sbgelu_fwd1_f32
    cfn2 = b.lib.repro_gelu_posttanh_f32
    ptr = b.operands.args
    held, at, hold = b.holds(3)

    def run(v, bias, topo):
        nnz, bs = v.shape[0], topo.block_size
        colidx = np.ascontiguousarray(topo.column_indices, I64)
        prl = addr(live_layout(topo).block_rows)
        a = arena.empty(v.shape, F4)
        t = arena.empty(v.shape, F4)
        pa = at[0] if a is held[0] else hold(0, a)
        pt = at[1] if t is held[1] else hold(1, t)
        cfn1(ptr[0], ptr[1], addr(colidx), prl, pa, pt, nnz, bs, _K044, _C)
        # pad rows of t hold +0.0 and tanh(+0.0) = +0.0
        np.tanh(t, out=t)
        out = arena.empty(v.shape, F4)
        cfn2(pa, pt, at[2] if out is held[2] else hold(2, out), prl, nnz, bs)
        return (a, t, topo), out

    return run


def _sbgelu_backward(b):
    from repro.sparse.dispatch import live_layout
    from repro.sparse.ops import segment_meta

    ccol = b.lib.repro_gelu_bwd_colsum_f32
    cseg = b.lib.repro_segsum_tr_f32
    ptr = b.operands.args
    held, at, hold = b.holds(3)

    def run(grad, a, t, topo):
        nnz, bs = grad.shape[0], topo.block_size
        g = arena.empty(grad.shape, F4)
        colsum = arena.empty((nnz, bs), F4)
        pc = at[1] if colsum is held[1] else hold(1, colsum)
        ccol(ptr[0], ptr[1], ptr[2], at[0] if g is held[0] else hold(0, g),
             pc, addr(live_layout(topo).block_rows), nnz, bs, _K3, _C)
        # The tail of _segment_reduce_bias_grad with the per-block
        # column sums already computed: the transpose-order
        # ``np.add.reduceat`` as a native segment loop (first element +
        # pairwise rest per segment — reduceat's exact reduction shape).
        # The bias gradient is acquired flat, the shape it is delivered
        # in: the arena's own view object, the same on every replay.
        gbias = arena.zeros((topo.block_cols * bs,), grad.dtype)
        nonempty, starts = segment_meta(topo, transpose=True)
        if len(nonempty):
            tbo, ne, st = tr_segments(topo, nonempty, starts)
            cseg(pc, addr(tbo), addr(ne), addr(st),
                 at[2] if gbias is held[2] else hold(2, gbias), len(ne), bs)
        arena.release(colsum)
        return g, gbias

    return run


def _biasgelu_backward(b):
    cfn = b.lib.repro_gelu_bwd_f32
    ptr = b.operands.args
    held, at, hold = b.holds(1)

    def run(grad, a, t, sx, sb):
        g = arena.empty(grad.shape, F4)
        cfn(ptr[0], ptr[1], ptr[2], at[0] if g is held[0] else hold(0, g),
            grad.size, _K3, _C)
        return unbroadcast(g, sx), unbroadcast(g, sb)

    return run


def _fuzz_sbgelu(rng):
    topo = fuzz_topology(rng)
    bs = topo.block_size
    return f32(rng, topo.nnz_blocks, bs, bs), f32(rng, topo.shape[1]), topo


_OUT_F32 = Contract(Arr(OUT, contig=False))
_SAME_F32 = (
    Arr(0), Arr(1), Arr(2),
    Rel("one a and t per grad element", lambda g, a, t, *_: (
        a.shape == g.shape == t.shape
    )),
)

KERNELS = (
    Kernel(
        "sbgelu", _S._SparseBiasGelu,
        source=_SBGELU_C,
        contract=Contract(
            Arr(0, rank=3),
            Arr(1, rank=1),
            Live("the topology's blocks and columns", lambda v, bias, topo: (
                blocks_of(v, topo, 1)
                and bias.size == topo.block_cols * topo.block_size
            )),
        ),
        forward=_sbgelu_forward,
        bwd_contract=_OUT_F32,
        bwd_guard=Contract(
            *_SAME_F32,
            # bs > 1: NumPy reduces a middle axis sequentially only
            # while the kept axis is wider than one element.
            Live("the topology's blocks, wider than one",
                 lambda g, a, t, topo: blocks_of(g, topo)),
        ),
        backward=_sbgelu_backward,
        fuzz=_fuzz_sbgelu,
    ),
    Kernel(
        "biasgelu", _F._BiasGelu,
        source=_BIASGELU_C,
        contract=_OUT_F32,
        bwd_guard=Contract(*_SAME_F32),
        backward=_biasgelu_backward,
        fuzz=lambda rng: (f32(rng, 5, 12), f32(rng, 12)),
    ),
)
