"""C source rendering for lowered segments.

One translation unit per graph: a fixed *prelude* of generic kernels
plus one generated function per fused elementwise segment.  Everything
here exists to be **bit-identical** to the NumPy eager path:

- ``pw32``/``pw32g`` replicate NumPy's pairwise summation exactly
  (sequential under 8 elements, 8-way unrolled blocks up to 128, then
  recursive halving aligned down to a multiple of 8).
- ``repro_zero_scat_add_f32`` replicates ``_scatter_add_rows`` on the
  ``idx >= 0`` subset: ``np.add.at``'s strictly sequential loop below
  16 rows, else the stable-sort + ``np.add.reduceat`` path, where each
  segment reduces as ``first + pairwise(rest)`` (the single-row case
  must *not* add ``0.0f`` — that would flip ``-0.0``).
- The LayerNorm pair mirrors the steady-state ufunc sequence of
  ``_LayerNorm`` op-for-op, including the NEP 50 scalar casts
  (``(float)H``, ``eps`` and lead-axis sums as sequential row adds).
- ``repro_adam_f32`` fuses the nine-ufunc in-place Adam update; every
  intermediate rounds to float32 exactly where the NumPy sequence does.
- Fused segments evaluate through float registers; on x86-64 SSE
  (``FLT_EVAL_METHOD == 0``, ``-ffp-contract=off``) register
  temporaries are bit-identical to materialized intermediates.

All of these are covered by differential fuzz tests against the NumPy
oracle (``tests/autograd/test_lowering.py``).
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

__all__ = ["PRELUDE", "render_fused", "render_unit", "c_literal"]


PRELUDE = r"""
#include <math.h>
#include <string.h>

typedef long long i64;

/* NumPy pairwise summation replica (contiguous float32). */
static float pw32(const float *a, i64 n)
{
    if (n < 8) {
        float r = 0.0f;
        for (i64 i = 0; i < n; i++) r += a[i];
        return r;
    }
    if (n <= 128) {
        float r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        float r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        i64 i = 8;
        for (; i < n - (n % 8); i += 8) {
            r0 += a[i]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        float r = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) r += a[i];
        return r;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pw32(a, n2) + pw32(a + n2, n - n2);
}

/* Pairwise over the gathered column rows[order[s+i]*h + j]. */
static float pw32g(const float *rows, const i64 *order, i64 s, i64 n,
                   i64 h, i64 j)
{
    if (n < 8) {
        float r = 0.0f;
        for (i64 i = 0; i < n; i++) r += rows[order[s + i] * h + j];
        return r;
    }
    if (n <= 128) {
        float r0 = rows[order[s] * h + j], r1 = rows[order[s + 1] * h + j];
        float r2 = rows[order[s + 2] * h + j], r3 = rows[order[s + 3] * h + j];
        float r4 = rows[order[s + 4] * h + j], r5 = rows[order[s + 5] * h + j];
        float r6 = rows[order[s + 6] * h + j], r7 = rows[order[s + 7] * h + j];
        i64 i = 8;
        for (; i < n - (n % 8); i += 8) {
            r0 += rows[order[s + i] * h + j];
            r1 += rows[order[s + i + 1] * h + j];
            r2 += rows[order[s + i + 2] * h + j];
            r3 += rows[order[s + i + 3] * h + j];
            r4 += rows[order[s + i + 4] * h + j];
            r5 += rows[order[s + i + 5] * h + j];
            r6 += rows[order[s + i + 6] * h + j];
            r7 += rows[order[s + i + 7] * h + j];
        }
        float r = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) r += rows[order[s + i] * h + j];
        return r;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pw32g(rows, order, s, n2, h, j)
        + pw32g(rows, order, s + n2, n - n2, h, j);
}

/* memset(out) then _scatter_add_rows(out, idx[idx>=0], rows[idx>=0]).
   scratch: nout+1 cursor slots followed by up to n order slots. */
void repro_zero_scat_add_f32(float *restrict out, const i64 *restrict idx,
                             const float *restrict rows,
                             i64 n, i64 h, i64 nout, i64 *scratch)
{
    memset(out, 0, (size_t)(nout * h) * sizeof(float));
    i64 nv = 0;
    for (i64 i = 0; i < n; i++)
        if (idx[i] >= 0) nv++;
    if (nv == 0) return;
    if (nv < 16) {
        /* np.add.at: strictly sequential in (filtered) order. */
        for (i64 i = 0; i < n; i++) {
            i64 t = idx[i];
            if (t < 0) continue;
            float *o = out + t * h;
            const float *r = rows + i * h;
            for (i64 j = 0; j < h; j++) o[j] += r[j];
        }
        return;
    }
    /* Stable counting sort == argsort(kind="stable") + segment bounds. */
    i64 *counts = scratch;
    i64 *order = scratch + nout + 1;
    for (i64 t = 0; t <= nout; t++) counts[t] = 0;
    for (i64 i = 0; i < n; i++)
        if (idx[i] >= 0) counts[idx[i] + 1]++;
    for (i64 t = 0; t < nout; t++) counts[t + 1] += counts[t];
    for (i64 i = 0; i < n; i++) {
        i64 t = idx[i];
        if (t >= 0) order[counts[t]++] = i;
    }
    for (i64 t = 0; t < nout; t++) {
        i64 s = t ? counts[t - 1] : 0;
        i64 e = counts[t];
        i64 len = e - s;
        if (len <= 0) continue;
        float *o = out + t * h;
        const float *r0 = rows + order[s] * h;
        if (len == 1) {
            for (i64 j = 0; j < h; j++) o[j] += r0[j];
        } else {
            for (i64 j = 0; j < h; j++)
                o[j] += r0[j] + pw32g(rows, order, s + 1, len - 1, h, j);
        }
    }
}

/* _GatherRows.forward: out[i] = x[max(ids[i],0)], zeroed where ids<0. */
void repro_gather_rows_f32(const float *restrict x, const i64 *restrict ids,
                           float *restrict out,
                           i64 n, i64 h)
{
    for (i64 i = 0; i < n; i++) {
        i64 t = ids[i];
        if (t < 0)
            memset(out + i * h, 0, (size_t)h * sizeof(float));
        else
            memcpy(out + i * h, x + t * h, (size_t)h * sizeof(float));
    }
}

/* _Embedding.forward: plain row take (ids pre-checked in bounds). */
void repro_embed_rows_f32(const float *restrict w, const i64 *restrict ids,
                          float *restrict out,
                          i64 n, i64 h)
{
    for (i64 i = 0; i < n; i++)
        memcpy(out + i * h, w + ids[i] * h, (size_t)h * sizeof(float));
}

/* _ScatterRows.backward: gx = zeros(n, h); gx[i] = g[ids[i]] if ids[i]>=0. */
void repro_gather_assign_f32(const float *restrict g, const i64 *restrict ids,
                             float *restrict gx,
                             i64 n, i64 h)
{
    memset(gx, 0, (size_t)(n * h) * sizeof(float));
    for (i64 i = 0; i < n; i++) {
        i64 t = ids[i];
        if (t >= 0)
            memcpy(gx + i * h, g + t * h, (size_t)h * sizeof(float));
    }
}

/* _GetItem.backward router pattern: flat = i0*ncol + i1, then the h==1
   zero+scatter-add.  scratch: n flat slots, nout+1 cursors, n order. */
void repro_getitem_flat_f32(float *restrict out, const i64 *restrict i0,
                            const i64 *restrict i1,
                            const float *restrict g, i64 n, i64 ncol, i64 nout,
                            i64 *scratch)
{
    i64 *flat = scratch;
    for (i64 i = 0; i < n; i++) flat[i] = i0[i] * ncol + i1[i];
    repro_zero_scat_add_f32(out, flat, g, n, 1, nout, scratch + n);
}

/* _Mul.backward, same-shape contiguous fast path. */
void repro_mul_bwd_f32(const float *restrict g, const float *restrict a,
                       const float *restrict b,
                       float *restrict ga, float *restrict gb, i64 n)
{
    if (ga)
        for (i64 i = 0; i < n; i++) ga[i] = g[i] * b[i];
    if (gb)
        for (i64 i = 0; i < n; i++) gb[i] = g[i] * a[i];
}

/* _LayerNorm.forward steady-path replica over R rows of H columns. */
void repro_ln_fwd_f32(const float *restrict x, const float *restrict w,
                      const float *restrict b,
                      float *restrict out, float *restrict xhat,
                      float *restrict inv,
                      i64 R, i64 H, double eps_, float *restrict sq)
{
    const float eps = (float)eps_;
    for (i64 r = 0; r < R; r++) {
        const float *xr = x + r * H;
        float *xh = xhat + r * H;
        float mu = pw32(xr, H) / (float)H;
        for (i64 j = 0; j < H; j++) {
            float dj = xr[j] - mu;
            xh[j] = dj;
            sq[j] = dj * dj;
        }
        float var = pw32(sq, H) / (float)H;
        float iv = 1.0f / sqrtf(var + eps);
        inv[r] = iv;
        for (i64 j = 0; j < H; j++) {
            float v = xh[j] * iv;
            xh[j] = v;
            out[r * H + j] = v * w[j] + b[j];
        }
    }
}

/* _LayerNorm.backward steady-path replica. */
void repro_ln_bwd_f32(const float *restrict g, const float *restrict xhat,
                      const float *restrict inv,
                      const float *restrict w, float *restrict gx,
                      float *restrict gw, float *restrict gb,
                      i64 R, i64 H, float *restrict tmp, float *restrict pr)
{
    for (i64 j = 0; j < H; j++) {
        gw[j] = g[j] * xhat[j];
        gb[j] = g[j];
    }
    for (i64 r = 1; r < R; r++) {
        const float *gr = g + r * H;
        const float *xr = xhat + r * H;
        for (i64 j = 0; j < H; j++) {
            gw[j] += gr[j] * xr[j];
            gb[j] += gr[j];
        }
    }
    for (i64 r = 0; r < R; r++) {
        const float *gr = g + r * H;
        const float *xr = xhat + r * H;
        float *gxr = gx + r * H;
        for (i64 j = 0; j < H; j++) tmp[j] = gr[j] * w[j];
        float s1 = pw32(tmp, H);
        for (i64 j = 0; j < H; j++) pr[j] = tmp[j] * xr[j];
        float s2 = pw32(pr, H);
        float c = inv[r] / (float)H;
        for (i64 j = 0; j < H; j++) {
            float a0 = (float)H * tmp[j];
            a0 = a0 - s1;
            a0 = a0 - xr[j] * s2;
            gxr[j] = c * a0;
        }
    }
}

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

/* Lead-axis sum: out[j] = sum_i a[i*h+j], the unbroadcast() reduction
   of a bias gradient.  NumPy reduces leading axes as strictly
   sequential row adds — but only while the kept axis is wider than one
   element (h == 1 collapses to a contiguous pairwise sum; callers must
   guard h > 1). */
void repro_sum_lead_f32(const float *restrict a, float *restrict out,
                        i64 r, i64 h)
{
    for (i64 j = 0; j < h; j++) out[j] = a[j];
    for (i64 i = 1; i < r; i++) {
        const float *row = a + i * h;
        for (i64 j = 0; j < h; j++) out[j] += row[j];
    }
}

/* Adam step: the nine-ufunc in-place mirror from training/optim.py,
   fused per element with float32 rounding at every intermediate. */
void repro_adam_f32(float *restrict p, float *restrict m, float *restrict v,
                    const float *restrict g, i64 n,
                    double lr_, double bc1_, double bc2_,
                    double b1_, double b2_, double eps_, double wd_)
{
    const float lr = (float)lr_;
    const float bc1 = (float)bc1_;
    const float bc2 = (float)bc2_;
    const float B1 = (float)b1_;
    const float B2 = (float)b2_;
    const float OMB1 = (float)(1.0 - b1_);
    const float OMB2 = (float)(1.0 - b2_);
    const float EPS = (float)eps_;
    const float WD = (float)wd_;
    const int has_wd = wd_ != 0.0;
    for (i64 i = 0; i < n; i++) {
        float gi = g[i];
        float mi = m[i] * B1 + OMB1 * gi;
        float vi = v[i] * B2 + (OMB2 * gi) * gi;
        m[i] = mi;
        v[i] = vi;
        float u = (mi / bc1) / (sqrtf(vi / bc2) + EPS);
        if (has_wd) u = u + WD * p[i];
        p[i] = p[i] - lr * u;
    }
}

/* Whole-model Adam step: one ctypes crossing per optimizer step instead
 * of one per parameter (the per-call marshalling dominates the many
 * small bias/LayerNorm tensors).  Scalars are shared: lr, bias
 * corrections, and betas are uniform across parameters within a step. */
void repro_adam_multi_f32(void **ps, void **ms, void **vs, void **gs,
                          const i64 *restrict sizes, i64 k,
                          double lr_, double bc1_, double bc2_,
                          double b1_, double b2_, double eps_, double wd_)
{
    for (i64 t = 0; t < k; t++) {
        repro_adam_f32((float *)ps[t], (float *)ms[t], (float *)vs[t],
                       (const float *)gs[t], sizes[t],
                       lr_, bc1_, bc2_, b1_, b2_, eps_, wd_);
    }
}

/* Sum of squares in double with NumPy's pairwise order.  Each product
 * equals the widening-multiply loop ((double)g[i] * (double)g[i], one
 * rounding), and the summation tree replicates NumPy's pairwise f64
 * reduction over the materialized buffer — fusing the square into the
 * traversal changes nothing because the summands are identical doubles
 * (and -ffp-contract=off keeps x*x out of any fma). */
static double pw64sq(const float *a, i64 n)
{
    if (n < 8) {
        double r = 0.0;
        for (i64 i = 0; i < n; i++) { double x = (double)a[i]; r += x * x; }
        return r;
    }
    if (n <= 128) {
        double r0 = (double)a[0] * (double)a[0];
        double r1 = (double)a[1] * (double)a[1];
        double r2 = (double)a[2] * (double)a[2];
        double r3 = (double)a[3] * (double)a[3];
        double r4 = (double)a[4] * (double)a[4];
        double r5 = (double)a[5] * (double)a[5];
        double r6 = (double)a[6] * (double)a[6];
        double r7 = (double)a[7] * (double)a[7];
        i64 i = 8;
        for (; i < n - (n % 8); i += 8) {
            double x;
            x = (double)a[i];     r0 += x * x;
            x = (double)a[i + 1]; r1 += x * x;
            x = (double)a[i + 2]; r2 += x * x;
            x = (double)a[i + 3]; r3 += x * x;
            x = (double)a[i + 4]; r4 += x * x;
            x = (double)a[i + 5]; r5 += x * x;
            x = (double)a[i + 6]; r6 += x * x;
            x = (double)a[i + 7]; r7 += x * x;
        }
        double r = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) { double x = (double)a[i]; r += x * x; }
        return r;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pw64sq(a, n2) + pw64sq(a + n2, n - n2);
}

/* Global grad-norm accumulator for clip_grad_norm: per-gradient
 * partials added in parameter order, exactly like the Python loop's
 * ``sq += float(buf.sum())``. */
double repro_clip_sumsq_f32(void **gs, const i64 *restrict sizes, i64 k)
{
    double sq = 0.0;
    for (i64 t = 0; t < k; t++)
        sq += pw64sq((const float *)gs[t], sizes[t]);
    return sq;
}

/* In-place ``g *= scale`` over every gradient (scale rounds to f32
 * once, like the NEP 50 scalar cast in the ufunc loop). */
void repro_scale_multi_f32(void **gs, const i64 *restrict sizes, i64 k,
                           double scale_)
{
    const float s = (float)scale_;
    for (i64 t = 0; t < k; t++) {
        float *g = (float *)gs[t];
        i64 n = sizes[t];
        for (i64 i = 0; i < n; i++) g[i] *= s;
    }
}

/* ------------------------------------------------------------------ */
/* BLAS bridge: GEMM kernels call the exact cblas_sgemm NumPy links    */
/* against (resolved at runtime from the scipy-openblas wheel and      */
/* injected via repro_set_blas) so every product is bitwise identical  */
/* to np.matmul — same microkernel, same reduction order, same FMA     */
/* decisions.  ILP64 interface: every dimension is an i64; the enums   */
/* are CblasRowMajor=101, CblasNoTrans=111, CblasTrans=112.  The       */
/* segmenter never classifies a GEMM-backed record unless the bridge   */
/* resolved, so a null pointer here is unreachable from compiled       */
/* plans.                                                              */
/* ------------------------------------------------------------------ */
typedef void (*repro_sgemm_t)(int order, int transa, int transb,
                              i64 m, i64 n, i64 k, float alpha,
                              const float *a, i64 lda,
                              const float *b, i64 ldb, float beta,
                              float *c, i64 ldc);
static repro_sgemm_t repro_sgemm = 0;

void repro_set_blas(void *sgemm) { repro_sgemm = (repro_sgemm_t)sgemm; }

/* x @ w + bias over an optionally batched x ((batch, m, k) with a
 * shared 2D w), exactly np.matmul(x, w, out=out); np.add(out, b, out).
 * wtrans: w stored (n, k) row-major (an F-contiguous (k, n) operand);
 * wld is the stored leading dimension (n when wtrans=0, k when 1). */
void repro_linbias_f32(const float *restrict x, const float *restrict w,
                       const float *restrict b, float *restrict out,
                       i64 batch, i64 m, i64 k, i64 n, i64 wtrans, i64 wld)
{
    for (i64 t = 0; t < batch; t++) {
        float *o = out + t * m * n;
        repro_sgemm(101, 111, wtrans ? 112 : 111, m, n, k, 1.0f,
                    x + t * m * k, k, w, wld, 0.0f, o, n);
        for (i64 i = 0; i < m; i++) {
            float *row = o + i * n;
            for (i64 j = 0; j < n; j++) row[j] += b[j];
        }
    }
}

/* Plain matmul: np.matmul(a, b, out=out) with the same batching and
 * transpose conventions as repro_linbias_f32. */
void repro_mm_f32(const float *restrict a, const float *restrict b,
                  float *restrict out, i64 batch, i64 m, i64 k, i64 n,
                  i64 btrans, i64 bld)
{
    for (i64 t = 0; t < batch; t++)
        repro_sgemm(101, 111, btrans ? 112 : 111, m, n, k, 1.0f,
                    a + t * m * k, k, b, bld, 0.0f, out + t * m * n, n);
}

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

/* Top-1 routing: (-scores).argsort(kind="stable")[..., :1].  The first
 * column of a stable ascending sort of -scores is the first occurrence
 * of the row max; NaN sorts last and is never picked unless the whole
 * row is NaN (then the stable identity order leaves index 0 first). */
void repro_topk1_i64(const float *restrict scores, i64 *restrict out,
                     i64 rows, i64 n)
{
    for (i64 r = 0; r < rows; r++) {
        const float *sr = scores + r * n;
        i64 best = -1;
        float bv = 0.0f;
        for (i64 j = 0; j < n; j++) {
            float v = sr[j];
            if (!isnan(v) && (best < 0 || v > bv)) { best = j; bv = v; }
        }
        out[r] = best < 0 ? 0 : best;
    }
}

/* _lb_fractions: bincount(idx, minlength=e) / max(n, 1), divided in
 * float64 and rounded to f32 on the store — the astype chain of the
 * host op. */
void repro_lbfrac_f32(const i64 *restrict idx, float *restrict out,
                      i64 n, i64 e, i64 *restrict counts)
{
    for (i64 t = 0; t < e; t++) counts[t] = 0;
    for (i64 i = 0; i < n; i++) counts[idx[i]]++;
    double denom = (double)(n > 0 ? n : 1);
    for (i64 t = 0; t < e; t++)
        out[t] = (float)((double)counts[t] / denom);
}

/* bool(np.isfinite(x).all()) over a contiguous f32 buffer. */
i64 repro_allfinite_f32(const float *restrict x, i64 n)
{
    for (i64 i = 0; i < n; i++)
        if (!isfinite(x[i])) return 0;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Grouped block-sparse GEMMs over the memoized DispatchPlan groups.   */
/* gt is the (G, 5) int64 group table [row_start, row_count,           */
/* col_start, col_count, val_start] in block units; stage is a         */
/* max_group_blocks*bs*bs scratch holding one group's dense rectangle. */
/* Dense operands carry (ld, trans) pairs: trans means the effective   */
/* matrix is the transpose of the row-major storage, so slicing rows   */
/* of the effective matrix offsets *within* stored rows (and vice      */
/* versa for columns) — the pointer arithmetic mirrors the zero-copy   */
/* NumPy views of repro.sparse.dispatch exactly.                       */
/*                                                                     */
/* lt is the (G, 2) int64 live table [live rows, GEMM rows] of the     */
/* topology's LiveLayout: each group's GEMM runs over its live rows    */
/* only (M = GEMM rows where the group's rows are an output extent —   */
/* the one-row rule is applied by dispatch.gemm_rows, not here —, K =  */
/* live rows where they are contracted), only those rows are staged or */
/* unshuffled, and the pad rows [live, row_count*bs) of the output are */
/* stored as +0.0f.  Same sgemm arguments, same zeros, as the NumPy    */
/* executors.                                                          */
/* ------------------------------------------------------------------ */

/* Copy the first ``rows`` rows of one group from the BCSR value array
 * into the dense stage rectangle (rows, c*bs): the _group_values
 * reshape/swapaxes. */
static void repro_group_gather(const float *restrict values,
                               float *restrict stage,
                               i64 rows, i64 c, i64 v0, i64 bs)
{
    i64 ng = c * bs;
    for (i64 br = 0; br * bs < rows; br++) {
        i64 here = rows - br * bs < bs ? rows - br * bs : bs;
        for (i64 bc = 0; bc < c; bc++) {
            const float *vb = values + (v0 + br * c + bc) * bs * bs;
            float *sb = stage + br * bs * ng + bc * bs;
            for (i64 ii = 0; ii < here; ii++)
                memcpy(sb + ii * ng, vb + ii * bs,
                       (size_t)bs * sizeof(float));
        }
    }
}

/* SDD: values of (A_eff @ B_eff) at each group rectangle; the product
 * of the live rows lands in stage and is scattered block-by-block into
 * values, pad rows as zeros. */
void repro_grouped_sdd_f32(const float *restrict a, i64 ald, i64 atrans,
                           const float *restrict b, i64 bld, i64 btrans,
                           float *restrict values, const i64 *restrict gt,
                           const i64 *restrict lt,
                           i64 G, i64 k, i64 bs, float *restrict stage)
{
    for (i64 g = 0; g < G; g++) {
        i64 r0 = gt[g * 5], r = gt[g * 5 + 1];
        i64 c0 = gt[g * 5 + 2], c = gt[g * 5 + 3], v0 = gt[g * 5 + 4];
        i64 lv = lt[g * 2], m = lt[g * 2 + 1];
        i64 ng = c * bs;
        const float *ap = atrans ? a + r0 * bs : a + r0 * bs * ald;
        const float *bp = btrans ? b + c0 * bs * bld : b + c0 * bs;
        if (m > 0)
            repro_sgemm(101, atrans ? 112 : 111, btrans ? 112 : 111,
                        m, ng, k, 1.0f, ap, ald, bp, bld, 0.0f, stage, ng);
        for (i64 br = 0; br < r; br++) {
            i64 here = lv - br * bs;
            here = here < 0 ? 0 : here > bs ? bs : here;
            for (i64 bc = 0; bc < c; bc++) {
                float *vb = values + (v0 + br * c + bc) * bs * bs;
                const float *sb = stage + br * bs * ng + bc * bs;
                for (i64 ii = 0; ii < here; ii++)
                    memcpy(vb + ii * bs, sb + ii * ng,
                           (size_t)bs * sizeof(float));
                memset(vb + here * bs, 0,
                       (size_t)((bs - here) * bs) * sizeof(float));
            }
        }
    }
}

/* DSD: out = (S or S^T) @ B_eff, one GEMM per gathered group. */
void repro_grouped_dsd_f32(const float *restrict values,
                           const float *restrict b, i64 bld, i64 btrans,
                           float *restrict out, i64 n,
                           const i64 *restrict gt, const i64 *restrict lt,
                           i64 G, i64 strans,
                           i64 bs, float *restrict stage)
{
    for (i64 g = 0; g < G; g++) {
        i64 r0 = gt[g * 5], r = gt[g * 5 + 1];
        i64 c0 = gt[g * 5 + 2], c = gt[g * 5 + 3], v0 = gt[g * 5 + 4];
        i64 lv = lt[g * 2], m = lt[g * 2 + 1];
        i64 ng = c * bs;
        if (strans) {
            float *op = out + c0 * bs * n;
            if (lv > 0) {
                const float *bp = btrans ? b + r0 * bs : b + r0 * bs * bld;
                repro_group_gather(values, stage, lv, c, v0, bs);
                repro_sgemm(101, 112, btrans ? 112 : 111, ng, n, lv, 1.0f,
                            stage, ng, bp, bld, 0.0f, op, n);
            } else {
                memset(op, 0, (size_t)(ng * n) * sizeof(float));
            }
        } else {
            float *op = out + r0 * bs * n;
            if (m > 0) {
                const float *bp = btrans ? b + c0 * bs : b + c0 * bs * bld;
                repro_group_gather(values, stage, m, c, v0, bs);
                repro_sgemm(101, 111, btrans ? 112 : 111, m, n, ng, 1.0f,
                            stage, ng, bp, bld, 0.0f, op, n);
            }
            memset(op + lv * n, 0, (size_t)((r * bs - lv) * n) * sizeof(float));
        }
    }
}

/* DDS: out = A_eff @ (S or S^T); each group fills an output column
 * band of the (mo, nout) row-major out. */
void repro_grouped_dds_f32(const float *restrict a, i64 ald, i64 atrans,
                           const float *restrict values,
                           float *restrict out, i64 mo, i64 nout,
                           const i64 *restrict gt, const i64 *restrict lt,
                           i64 G, i64 strans,
                           i64 bs, float *restrict stage)
{
    for (i64 g = 0; g < G; g++) {
        i64 r0 = gt[g * 5], r = gt[g * 5 + 1];
        i64 c0 = gt[g * 5 + 2], c = gt[g * 5 + 3], v0 = gt[g * 5 + 4];
        i64 lv = lt[g * 2], m = lt[g * 2 + 1];
        i64 ng = c * bs;
        if (strans) {
            float *op = out + r0 * bs;
            if (m > 0) {
                const float *ap = atrans ? a + c0 * bs * ald : a + c0 * bs;
                repro_group_gather(values, stage, m, c, v0, bs);
                repro_sgemm(101, atrans ? 112 : 111, 112, mo, m, ng, 1.0f,
                            ap, ald, stage, ng, 0.0f, op, nout);
            }
            if (lv < r * bs)
                for (i64 i = 0; i < mo; i++)
                    memset(op + i * nout + lv, 0,
                           (size_t)(r * bs - lv) * sizeof(float));
        } else {
            float *op = out + c0 * bs;
            if (lv > 0) {
                const float *ap = atrans ? a + r0 * bs * ald : a + r0 * bs;
                repro_group_gather(values, stage, lv, c, v0, bs);
                repro_sgemm(101, atrans ? 112 : 111, 111, mo, ng, lv, 1.0f,
                            ap, ald, stage, ng, 0.0f, op, nout);
            } else {
                for (i64 i = 0; i < mo; i++)
                    memset(op + i * nout, 0, (size_t)ng * sizeof(float));
            }
        }
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


def c_literal(value: float, ctype: str) -> str:
    """Exact hexadecimal float literal for a frozen scalar constant.

    NEP 50: a Python scalar combined with a float32 array is cast to
    float32 before the loop, so the float32 rounding happens *here*, at
    render time, and the literal is exact."""
    if ctype == "float":
        v = float(np.float32(value))
    else:
        v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"non-finite constant {value!r} cannot be lowered")
    suffix = "f" if ctype == "float" else ""
    return f"{v.hex()}{suffix}"


def _contig_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    out: List[int] = []
    acc = 1
    for dim in reversed(shape):
        out.append(acc)
        acc *= dim
    return tuple(reversed(out))


def _index_expr(strides: Tuple[int, ...]) -> str:
    terms = []
    for k, s in enumerate(strides):
        if s == 0:
            continue
        terms.append(f"i{k}" if s == 1 else f"i{k} * {s}")
    return " + ".join(terms) if terms else "0"


def _render_flat(seg) -> str:
    """Flat variant: every operand is full-shape contiguous, so the loop
    nest collapses to ``for (i = 0; i < n; i++)`` with the element count
    ``n`` read from one extra ``i64`` slot at the end of ``p`` on every
    call — the segment survives live shapes that drift from capture."""
    ctype = seg.ctype
    lines: List[str] = [f"void {seg.name}(void **p)", "{"]
    for k in range(len(seg.ext)):
        lines.append(
            f"    const {ctype} *restrict e{k} = (const {ctype} *)p[{k}];"
        )
    n_ext = len(seg.ext)
    stores = [s for s in seg.steps if s.materialize]
    for t in range(len(stores)):
        lines.append(
            f"    {ctype} *restrict o{t} = ({ctype} *)p[{n_ext + t}];"
        )
    lines.append(f"    i64 n = *(const i64 *)p[{n_ext + len(stores)}];")
    lines.append("    for (i64 i = 0; i < n; i++) {")

    def ref_expr(ref):
        kind, payload = ref
        if kind == "lit":
            return c_literal(payload, ctype)
        if kind == "tmp":
            return f"t{payload}"
        return f"e{payload}[i]"

    store_slot = {s.index: t for t, s in enumerate(stores)}
    for step in seg.steps:
        lines.append(
            f"        {ctype} t{step.index} = "
            f"{ref_expr(step.lhs)} {step.op} {ref_expr(step.rhs)};"
        )
        t = store_slot.get(step.index)
        if t is not None:
            lines.append(f"        o{t}[i] = t{step.index};")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _render_flat2(seg) -> str:
    """Rows-by-H variant: every operand is either full-shape contiguous
    or a contiguous per-row ``(..., 1)`` column (e.g. the routing-weight
    scale applied to gathered expert rows).  The row count is read from
    one extra ``i64`` slot at call time while the last-axis width stays
    baked, so the segment keeps running natively when the leading shape
    drifts between micro batches."""
    ctype = seg.ctype
    H = seg.shape[-1]
    lines: List[str] = [f"void {seg.name}(void **p)", "{"]
    for k in range(len(seg.ext)):
        lines.append(
            f"    const {ctype} *restrict e{k} = (const {ctype} *)p[{k}];"
        )
    n_ext = len(seg.ext)
    stores = [s for s in seg.steps if s.materialize]
    for t in range(len(stores)):
        lines.append(
            f"    {ctype} *restrict o{t} = ({ctype} *)p[{n_ext + t}];"
        )
    lines.append(f"    i64 r = *(const i64 *)p[{n_ext + len(stores)}];")
    lines.append("    for (i64 i = 0; i < r; i++) {")
    lines.append(f"        for (i64 j = 0; j < {H}; j++) {{")

    def ref_expr(ref):
        kind, payload = ref
        if kind == "lit":
            return c_literal(payload, ctype)
        if kind == "tmp":
            return f"t{payload}"
        if seg.ekinds[payload] == "row":
            return f"e{payload}[i]"
        return f"e{payload}[i * {H} + j]"

    store_slot = {s.index: t for t, s in enumerate(stores)}
    for step in seg.steps:
        lines.append(
            f"            {ctype} t{step.index} = "
            f"{ref_expr(step.lhs)} {step.op} {ref_expr(step.rhs)};"
        )
        t = store_slot.get(step.index)
        if t is not None:
            lines.append(f"            o{t}[i * {H} + j] = t{step.index};")
    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def render_fused(seg) -> str:
    """Render one fused segment as ``void <name>(void **p)``.

    ``p`` holds the external operand pointers first, then one output
    pointer per materialized step, in step order.  Shapes and strides
    are baked; broadcast dimensions have stride 0.  Segments whose
    operands are all full-shape contiguous render through
    :func:`_render_flat` with a runtime trip count instead; segments
    that additionally carry ``(..., 1)`` per-row columns render through
    :func:`_render_flat2`."""
    if seg.flat:
        return _render_flat(seg)
    if seg.flat2:
        return _render_flat2(seg)
    ctype = seg.ctype
    shape = seg.shape if seg.shape else (1,)
    nd = len(shape)
    out_strides = _contig_strides(shape)
    lines: List[str] = [f"void {seg.name}(void **p)", "{"]
    for k in range(len(seg.ext)):
        lines.append(
            f"    const {ctype} *restrict e{k} = (const {ctype} *)p[{k}];"
        )
    n_ext = len(seg.ext)
    stores = [s for s in seg.steps if s.materialize]
    for t, step in enumerate(stores):
        lines.append(
            f"    {ctype} *restrict o{t} = ({ctype} *)p[{n_ext + t}];"
        )
    indent = "    "
    for k, dim in enumerate(shape):
        lines.append(f"{indent}for (i64 i{k} = 0; i{k} < {dim}; i{k}++) {{")
        indent += "    "

    def ref_expr(ref):
        kind, payload = ref
        if kind == "lit":
            return c_literal(payload, ctype)
        if kind == "tmp":
            return f"t{payload}"
        strides = seg.ext[payload][2]
        return f"e{payload}[{_index_expr(strides)}]"

    store_slot = {s.index: t for t, s in enumerate(stores)}
    out_ix = _index_expr(out_strides)
    for step in seg.steps:
        lines.append(
            f"{indent}{ctype} t{step.index} = "
            f"{ref_expr(step.lhs)} {step.op} {ref_expr(step.rhs)};"
        )
        t = store_slot.get(step.index)
        if t is not None:
            lines.append(f"{indent}o{t}[{out_ix}] = t{step.index};")
    for _ in range(nd):
        indent = indent[:-4]
        lines.append(f"{indent}}}")
    lines.append("}")
    return "\n".join(lines)


def render_unit(analysis) -> str:
    """The full translation unit for an analyzed graph."""
    from repro.autograd.lower.segmenter import FusedSeg

    parts = [PRELUDE]
    n = 0
    for unit in analysis.units:
        if isinstance(unit, FusedSeg):
            unit.name = f"repro_seg{n}"
            n += 1
            parts.append(render_fused(unit))
    return "\n\n".join(parts) + "\n"
