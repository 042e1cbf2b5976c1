"""Optimizer riders: the fused Adam step and the global grad norm.

Not graph units — :func:`repro.autograd.lower.attach_adam` binds them
to one optimizer — but declared like any other entry, so their C is
rendered, bound and catalogued through the same table.
"""

from __future__ import annotations

from repro.autograd.lower.kernels.base import Kernel, f32

_ADAM_C = r"""
/* Adam step: the nine-ufunc in-place mirror from training/optim.py,
   fused per element with float32 rounding at every intermediate.  The
   gradient enters as g[i] * gs — the clip scale, formed in register:
   the same rounded fp32 product a separate ``g *= gs`` pass stores
   (-ffp-contract=off keeps it out of any fma), and the identity at
   gs = 1.  Not exported: repro_adam_multi_f32 is the entry point, and
   noinline keeps the loop one function to disassemble
   (docs/performance.md). */
static __attribute__((noinline)) void
repro_adam_f32(float *restrict p, float *restrict m, float *restrict v,
               const float *restrict g, i64 n,
               double lr_, double bc1_, double bc2_,
               double b1_, double b2_, double eps_, double wd_,
               double gs_)
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
    const float GS = (float)gs_;
    const int has_wd = wd_ != 0.0;
    for (i64 i = 0; i < n; i++) {
        float gi = g[i] * GS;
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
                          double b1_, double b2_, double eps_, double wd_,
                          double gs_)
{
    for (i64 t = 0; t < k; t++) {
        repro_adam_f32((float *)ps[t], (float *)ms[t], (float *)vs[t],
                       (const float *)gs[t], sizes[t],
                       lr_, bc1_, bc2_, b1_, b2_, eps_, wd_, gs_);
    }
}
"""

_CLIP_C = r"""
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

/* Global grad-norm accumulator for grad_norm: per-gradient partials
 * added in parameter order, exactly like the Python loop's
 * ``sq += float(buf.sum())``. */
double repro_clip_sumsq_f32(void **gs, const i64 *restrict sizes, i64 k)
{
    double sq = 0.0;
    for (i64 t = 0; t < k; t++)
        sq += pw64sq((const float *)gs[t], sizes[t]);
    return sq;
}
"""


def _fuzz_tensors(rng):
    """Parameter-shaped tensors either side of the vector widths."""
    return tuple(f32(rng, n) for n in (1, 7, 64, 1000))


KERNELS = (
    Kernel(
        "adam", "repro.training.optim.Adam",
        source=_ADAM_C,
        fuzz=_fuzz_tensors,
    ),
    Kernel(
        "clip", "repro.training.optim.grad_norm",
        source=_CLIP_C,
        fuzz=_fuzz_tensors,
    ),
)
