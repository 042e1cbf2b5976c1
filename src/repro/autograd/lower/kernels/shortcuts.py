"""Same-shape backward shortcuts for elementwise ops.

When both operands already have the output's shape there is nothing to
un-broadcast: ``add`` and the mask-free dropout-residual hand the
gradient straight through, and ``mul`` is one flat C loop.  The baked
operand shapes are only the predictor; the live guard re-checks.
"""

from __future__ import annotations

from repro.autograd import arena
from repro.autograd import ops_basic as _B
from repro.autograd import ops_fused as _F
from repro.autograd.lower.kernels.base import (
    F4, OUT, Arr, Capture, Contract, Kernel, Rel, f32,
)

_MUL_C = r"""
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
"""

_SAME_SHAPE = Capture("operands of the output's shape", lambda rec, v: (
    v[0] is not None and v[1] is not None
    and v[0].shape == v[1].shape == v[OUT].shape
))


def _mul_backward(b):
    cfn = b.lib.repro_mul_bwd_f32
    targets = b.targets
    want_a = len(targets) > 0 and targets[0] >= 0
    want_b = len(targets) > 1 and targets[1] >= 0

    def run(g, a, b_):
        ga = arena.empty(g.shape, F4) if want_a else None
        gb = arena.empty(g.shape, F4) if want_b else None
        cfn(
            g.ctypes.data, a.ctypes.data, b_.ctypes.data,
            ga.ctypes.data if ga is not None else None,
            gb.ctypes.data if gb is not None else None,
            g.size,
        )
        return (ga, gb)

    return run


def _pass_through(b):
    def run(g, *_saved):
        return (g, g)

    return run


KERNELS = (
    Kernel(
        "mul", _B._Mul,
        source=_MUL_C,
        contract=Contract(
            Arr(OUT, contig=False),
            _SAME_SHAPE,
            # Below this the ctypes call + two pool acquisitions cost
            # more than NumPy's whole ufunc dispatch: the swap would
            # only ever slow down the scalar loss-combination muls.
            Capture("at least 4096 elements", lambda rec, v: v[OUT].size >= 4096),
        ),
        bwd_guard=Contract(
            Arr(0), Arr(1), Arr(2),
            Rel("operands of the grad's shape", lambda g, a, b: (
                a.shape == g.shape == b.shape
            )),
        ),
        backward=_mul_backward,
        fuzz=lambda rng: (f32(rng, 64, 64), f32(rng, 64, 64)),
    ),
    Kernel(
        "add2", _B._Add,
        contract=Contract(_SAME_SHAPE),
        bwd_guard=Contract(
            Rel("operands of the grad's shape", lambda g, sa, sb: (
                g.shape == sa and g.shape == sb
            )),
        ),
        backward=_pass_through,
        fuzz=lambda rng: (f32(rng, 4, 8), f32(rng, 4, 8)),
    ),
    Kernel(
        "dropres2", _F._DropoutResidual,
        contract=Contract(_SAME_SHAPE),
        bwd_guard=Contract(
            Rel("no mask, operands of the grad's shape",
                lambda g, mask, sy, sr: (
                    mask is None and g.shape == sy and g.shape == sr
                )),
        ),
        backward=_pass_through,
        fuzz=lambda rng: (f32(rng, 4, 8), f32(rng, 4, 8), 0.0, False, None),
    ),
)
