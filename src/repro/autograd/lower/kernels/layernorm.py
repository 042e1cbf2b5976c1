"""LayerNorm forward and backward.

The C pair mirrors the steady-state ufunc sequence of ``_LayerNorm``
op for op, including the NEP 50 scalar casts (``(float)H``, ``eps``) and
the lead-axis sums as sequential row adds.  The forward has two faces:
a captured ``_LayerNorm`` record, and a direct one on plain arrays,
which the serving plan (:mod:`repro.serving.plan`) binds for every
LayerNorm it serves (its reference is the op's NumPy ``forward``, and
each row reads only itself).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import arena
from repro.autograd import ops_nn as _N
from repro.autograd.lower.kernels.base import (
    F4, Arr, Const, Contract, Kernel, Rel, addr, f32, rows_width,
)

_LN_C = r"""
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
"""


def _ln_forward(b):
    """A captured record saves ``(xhat, inv, w)`` at its pinned shapes.
    A direct caller (the serving plan's face,
    :data:`repro.serving.kernels.layer_norm`) gets the output alone, shapes read per call, and ``xhat``, ``inv`` and the
    row of squares share one scratch array."""
    cfn = b.lib.repro_ln_fwd_f32
    if b.rec is None:

        def direct(x, w, bias, eps=1e-5):
            n, h = x.size, x.shape[-1]
            r = n // h
            out = np.empty(x.shape, F4)
            scratch = np.empty(n + r + h, F4)
            xhat = addr(scratch)
            inv = xhat + 4 * n
            cfn(addr(x), addr(w), addr(bias), addr(out), xhat, inv, r, h, eps,
                inv + 4 * r)
            return (out,)

        return direct
    shape = b.shape(0)
    R, H = rows_width(shape)
    eps = float(b.const(3, "eps", 1e-5))
    inv_shape = shape[:-1] + (1,)
    ptr = b.operands.args
    held, at, hold = b.holds(3)
    # One row of squares; replays are single-threaded.
    psq = b.own(H, F4)

    def run(x, w, bias, *_eps):
        out = arena.empty(shape, F4)
        xhat = arena.empty(shape, F4)
        inv = arena.empty(inv_shape, F4)
        cfn(
            ptr[0], ptr[1], ptr[2],
            at[0] if out is held[0] else hold(0, out),
            at[1] if xhat is held[1] else hold(1, xhat),
            at[2] if inv is held[2] else hold(2, inv),
            R, H, eps, psq,
        )
        return (xhat, inv, w), out

    return run


def _ln_backward(b):
    shape = b.shape(0)
    R, H = rows_width(shape)
    cfn = b.lib.repro_ln_bwd_f32
    ptr = b.operands.args
    held, at, hold = b.holds(3)
    ptmp, ppr = b.own(H, F4), b.own(H, F4)

    def run(g, xhat, inv, w):
        gx = arena.empty(shape, F4)
        gw = arena.empty((H,), F4)
        gb = arena.empty((H,), F4)
        cfn(
            ptr[0], ptr[1], ptr[2], ptr[3],
            at[0] if gx is held[0] else hold(0, gx),
            at[1] if gw is held[1] else hold(1, gw),
            at[2] if gb is held[2] else hold(2, gb),
            R, H, ptmp, ppr,
        )
        return gx, gw, gb

    return run


def _ln_saved_descs(rec):
    """Captured layouts of ``(grad, xhat, inv, w)``: the gradient and
    ``xhat`` have the input's, ``inv`` one value per row."""
    x_d, w_d = rec.descs[1][0], rec.descs[1][1]
    inv_shape = x_d[1][:-1] + (1,)
    return x_d, x_d, ("<f4", inv_shape, None), w_d


def _ln_checks(rng):
    """One decode row; rows wider than 128 (the pairwise sum splits);
    a non-default ``eps``."""
    return [
        (f32(rng, 1, 64), f32(rng, 64), f32(rng, 64), 1e-5),
        (f32(rng, 2, 3, 300), f32(rng, 300), f32(rng, 300), 1e-6),
    ]


def _ln_rows(args, pick):
    x, *rest = args
    return (x.reshape(-1, x.shape[-1])[pick], *rest)


LN = Kernel(
    "ln", _N._LayerNorm,
    source=_LN_C,
    contract=Contract(
        Arr(0, pin=True),
        Arr(1, rank=1, pin=True),
        Arr(2, rank=1, pin=True),
        Const(3, optional=True),
        Rel("rows of a non-empty matrix, one scale and shift per column",
            lambda x, w, b, *_: x.ndim >= 2 and x.size and (
                w.shape[0] == b.shape[0] == x.shape[-1])),
    ),
    forward=_ln_forward,
    bwd_guard=Contract(
        Arr(0, shape=True), Arr(1, shape=True),
        Arr(2, shape=True), Arr(3, shape=True),
    ),
    bwd_descs=_ln_saved_descs,
    backward=_ln_backward,
    fuzz=lambda rng: (f32(rng, 3, 5, 16), f32(rng, 16), f32(rng, 16)),
    checks=_ln_checks,
    rows=_ln_rows,
)

KERNELS = (LN,)
