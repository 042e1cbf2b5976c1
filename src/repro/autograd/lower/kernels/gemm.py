"""Dense GEMMs through NumPy's own ``cblas_sgemm``.

The kernels call the exact function NumPy links against (resolved at
run time and injected via ``repro_set_blas``), so every product is
bitwise ``np.matmul`` — same microkernel, same reduction order, same
FMA decisions.  Every operand is pinned to its captured layout: the
GEMM dimensions and the transpose flag are baked at build time.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import arena
from repro.autograd import ops_basic as _B
from repro.autograd import ops_fused as _F
from repro.autograd.lower.kernels.base import (
    BLAS, F4, OUT, Arr, Capture, Contract, Kernel, Rel, View, f32, matmul_into,
)
from repro.autograd.ops_basic import _unbroadcast_release

_MM_C = r"""
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
"""

_LINBIAS_C = r"""
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
"""


def gemm_lead(x):
    """``(batch, m, k)`` of a 2-D/3-D left operand with every GEMM
    dimension >= 2, or ``None``.  A 3-D lead batches a shared 2-D right
    operand, NumPy-matmul style."""
    if x.ndim == 2:
        batch, (m, k) = 1, x.shape
    else:
        batch, m, k = x.shape
    if m < 2 or k < 2 or batch < 1:
        return None
    return batch, m, k


def gemm_side(w):
    """``(trans, ld)`` of a 2-D float32 right operand, or ``None``.

    ``trans=0``: plain row-major storage (ld = cols).  ``trans=1``: the
    effective matrix is F-contiguous — physically its row-major
    transpose (ld = rows) — and is passed to cblas with a transpose
    flag, exactly how NumPy dispatches such views.  One-wide operands
    are excluded: NumPy routes those through sgemv, whose reduction
    order sgemm does not replicate."""
    (rows, cols), (s0, s1) = w.shape, w.strides
    if rows < 2 or cols < 2:
        return None
    if (s0, s1) == (cols * 4, 4):
        return 0, cols
    if (s0, s1) == (4, rows * 4):
        return 1, rows
    return None


def _gemm_forward(b):
    """``mm`` and, with a third operand, ``linbias``."""
    x_d, w_d = (View(d) for d in b.rec.descs[1][:2])
    batch, m, k = gemm_lead(x_d)
    trans, ld = gemm_side(w_d)
    n = w_d.shape[1]
    out_shape = b.shape(OUT)
    has_bias = len(b.rec.specs) == 3
    # The pinned bias shape, saved as one object: the backward's guard
    # then holds it like its arrays.
    bias_shape = b.shape(2) if has_bias else None
    cfn = b.lib.repro_linbias_f32 if has_bias else b.lib.repro_mm_f32
    ptr = b.operands.args
    held, at, hold = b.holds(1)

    def run(x, w, bias=None):
        out = arena.empty(out_shape, F4)
        po = at[0] if out is held[0] else hold(0, out)
        if has_bias:
            cfn(ptr[0], ptr[1], ptr[2], po, batch, m, k, n, trans, ld)
            return (x, w, bias_shape), out
        cfn(ptr[0], ptr[1], po, batch, m, k, n, trans, ld)
        return (x, w), out

    return run


def _linbias_backward(b):
    cfn = b.lib.repro_sum_lead_f32
    ptr = b.operands.args
    held, at, hold = b.holds(1)

    def run(grad, x, w, sb):
        h = sb[0]
        gb = arena.empty((h,), F4)
        cfn(ptr[0], at[0] if gb is held[0] else hold(0, gb), grad.size // h, h)
        xs = x.shape
        gx = matmul_into(grad, w.swapaxes(-1, -2), grad.shape[:-1] + w.shape[:1])
        gw = matmul_into(x.swapaxes(-1, -2), grad, xs[:-2] + (xs[-1], h))
        if gx.shape != x.shape:
            gx = _unbroadcast_release(gx, x.shape)
        if gw.shape != w.shape:
            gw = _unbroadcast_release(gw, w.shape)
        return gx, gw, gb

    return run


_GEMM = (
    BLAS,
    Arr(0, rank=(2, 3), pin=True),
    Arr(1, rank=2, contig=False, pin=True),
    Arr(OUT),
    Rel("GEMM dimensions >= 2, w row- or column-major", lambda x, w, *_: (
        gemm_lead(x) is not None and gemm_side(w) is not None
    )),
    Rel("inner dimensions agree", lambda x, w, *_: w.shape[0] == x.shape[-1]),
)


def _fuzz_gemm(rng):
    x = f32(rng, *((3, 5, 7) if rng.random() < 0.5 else (5, 7)))
    w = f32(rng, 7, 6) if rng.random() < 0.5 else f32(rng, 6, 7).T
    return x, w


KERNELS = (
    Kernel(
        "mm", _B._MatMul,
        source=_MM_C,
        contract=Contract(*_GEMM),
        forward=_gemm_forward,
        fuzz=_fuzz_gemm,
    ),
    Kernel(
        "linbias", _F._LinearBias,
        source=_LINBIAS_C,
        contract=Contract(
            *_GEMM,
            Arr(2, rank=1, pin=True),
            Rel("one bias per output column", lambda x, w, bias: (
                bias.shape[0] == w.shape[1]
            )),
        ),
        forward=_gemm_forward,
        bwd_contract=Contract(
            Arr(OUT, rank=(2, 3), contig=False),
            Arr(2, rank=1, contig=False),
            Capture("one bias per output column", lambda rec, v: (
                v[2].shape[0] == v[OUT].shape[-1]
            )),
        ),
        bwd_guard=Contract(
            Arr(0, rank=(2, 3)),
            # h > 1 is load-bearing: NumPy reduces leading axes as
            # sequential row adds only while the kept axis is wider
            # than one element (h == 1 goes pairwise).
            Rel("grad rows of the bias width, wider than one",
                lambda g, x, w, sb: len(sb) == 1 and g.shape[-1] == sb[0] > 1),
        ),
        backward=_linbias_backward,
        fuzz=lambda rng: _fuzz_gemm(rng) + (f32(rng, 6),),
    ),
)
