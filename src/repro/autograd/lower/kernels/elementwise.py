"""Elementwise arithmetic: ``+ - * /``, the mask-free dropout-residual,
and the same-shape backward shortcuts.

The forward entries replace ``_Add``, ``_Sub``, ``_Mul``, ``_Div`` and
``_DropoutResidual`` without a mask.  Their C does one IEEE operation
per element; under ``-ffp-contract=off`` nothing is contracted or
reassociated, so every lane holds NumPy's bits whatever the vector
width.  The contract admits exactly three float32 layouts — the ones
training graphs produce:

- both operands C-contiguous with one shape (0-d included): one flat
  loop over the element count, read per call;
- a ``(rows, H)`` operand and a contiguous ``(rows, 1)`` column, either
  side (the routing-weight scale of the gathered expert rows): the row
  count is read per call, so routing drift never declines;
- a ``(B, S, H)`` operand and a contiguous ``(1, S, H)`` block repeated
  over the leading axis, either side (the position-embedding add).

Anything else stays on the interpreter.  Beside them, the backward
shortcuts: with both operands already of the output's shape there is
nothing to un-broadcast, so ``add2`` and ``dropres2`` hand the gradient
straight through and ``mul`` is one flat C loop.  The baked operand
shapes are only the predictor; the live guard re-checks.
"""

from __future__ import annotations

from repro.autograd import arena
from repro.autograd import ops_basic as _B
from repro.autograd import ops_fused as _F
from repro.autograd.lower.kernels.base import (
    F4, OUT, Arr, Capture, Const, Contract, Kernel, Rel, f32,
)

_EW_C = r"""
/* out = a OP b over `rows` rows of `w` elements.  ra and rb are the
   operands' row steps: w for a full operand, 0 for a block repeated
   over the rows, 1 for a (rows, 1) column whose one value is read per
   row. */
void repro_ew_NAME_f32(const float *restrict a, const float *restrict b,
                       float *restrict out, i64 rows, i64 w, i64 ra, i64 rb)
{
    for (i64 i = 0; i < rows; i++) {
        const float *x = a + i * ra, *y = b + i * rb;
        float *o = out + i * w;
        if (w > 1 && ra == 1) {
            const float s = x[0];
            for (i64 j = 0; j < w; j++) o[j] = s OP y[j];
        } else if (w > 1 && rb == 1) {
            const float s = y[0];
            for (i64 j = 0; j < w; j++) o[j] = x[j] OP s;
        } else {
            for (i64 j = 0; j < w; j++) o[j] = x[j] OP y[j];
        }
    }
}
"""

_DROPRES_C = r"""
/* _DropoutResidual.forward without a mask: residual + y. */
void repro_ew_dropres_f32(const float *y, const float *r, float *out,
                          i64 rows, i64 w, i64 ry, i64 rr)
{
    repro_ew_add_f32(r, y, out, rows, w, rr, ry);
}
"""

_MUL_BWD_C = r"""
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


def _layout(a, b):
    """``(out shape, rows, w, a's row step, b's row step)`` of the
    admitted layout ``a`` and ``b`` form, else ``None``."""
    sa, sb = a.shape, b.shape
    if sa == sb:
        return sa, 1, a.size, 0, 0
    if len(sa) == len(sb) == 2 and sa[0] == sb[0]:
        if sb[1] == 1:
            return sa, sa[0], sa[1], sa[1], 1
        if sa[1] == 1:
            return sb, sb[0], sb[1], 1, sb[1]
    elif len(sa) == len(sb) == 3 and sa[1:] == sb[1:]:
        if sb[0] == 1:
            return sa, sa[0], b.size, b.size, 0
        if sa[0] == 1:
            return sb, sb[0], a.size, 0, a.size
    return None


_ADMITTED = Rel(
    "one shape, a (rows, 1) column or a (1, S, H) block",
    lambda a, b, *_: _layout(a, b) is not None,
)


def _forward(symbol, saves):
    """The runner of every forward entry: ``saves(a, b)`` is what the
    replaced op's ``Context`` holds."""

    def build(b):
        cfn = getattr(b.lib, symbol)
        operands = b.operands
        ptr = operands.args
        # Position 1 holds the operand tuple the guard last bound, and
        # the layout and saved tuple read off it: both are functions of
        # the operands' layouts, so they hold while the operands do.
        held, at, hold = b.holds(2)

        def run(x, y, *_):
            if operands.held is not held[1]:
                held[1], at[1] = operands.held, (_layout(x, y), saves(x, y))
            (shape, rows, w, rx, ry), saved = at[1]
            out = arena.empty(shape, F4)
            po = at[0] if out is held[0] else hold(0, out)
            cfn(ptr[0], ptr[1], po, rows, w, rx, ry)
            return saved, out

        return run

    return build


def _fuzz(rng):
    """Operands of one admitted layout, the broadcast one on either side.
    One shape is drawn with one to three axes: a 0-d pair runs the same
    flat loop, and has no strided view to offer the conformance test."""
    kind = int(rng.integers(3))
    if kind == 0:
        shape = tuple(rng.integers(2, 6, size=int(rng.integers(1, 4))))
        return f32(rng, *shape), f32(rng, *shape)
    rows = int(rng.integers(2, 7))
    if kind == 1:
        pair = f32(rng, rows, 5), f32(rng, rows, 1)
    else:
        pair = f32(rng, rows, 3, 4), f32(rng, 1, 3, 4)
    return pair if rng.random() < 0.5 else pair[::-1]


def _arithmetic(name, op, fn, saves):
    return Kernel(
        f"ew_{name}", fn,
        source=_EW_C.replace("NAME", name).replace("OP", op),
        contract=Contract(Arr(0), Arr(1), _ADMITTED),
        forward=_forward(f"repro_ew_{name}_f32", saves),
        fuzz=_fuzz,
    )


def _shapes(a, b):
    return a.shape, b.shape


def _arrays(a, b):
    return a, b


def _mask_free(rec, views) -> bool:
    p, training = rec.specs[2][1], rec.specs[3][1]
    return not (training and p is not None and p > 0.0)


# -- backward shortcuts ------------------------------------------------
_SAME_SHAPE = Capture("operands of the output's shape", lambda rec, v: (
    v[0] is not None and v[1] is not None
    and v[0].shape == v[1].shape == v[OUT].shape
))


def _mul_backward(b):
    cfn = b.lib.repro_mul_bwd_f32
    targets = b.targets
    want_a = len(targets) > 0 and targets[0] >= 0
    want_b = len(targets) > 1 and targets[1] >= 0
    ptr = b.operands.args
    held, at, hold = b.holds(2)

    def run(g, a, b_):
        ga = pa = gb = pb = None
        if want_a:
            ga = arena.empty(g.shape, F4)
            pa = at[0] if ga is held[0] else hold(0, ga)
        if want_b:
            gb = arena.empty(g.shape, F4)
            pb = at[1] if gb is held[1] else hold(1, gb)
        cfn(ptr[0], ptr[1], ptr[2], pa, pb, g.size)
        return (ga, gb)

    return run


def _pass_through(b):
    def run(g, *_saved):
        return (g, g)

    return run


KERNELS = (
    _arithmetic("add", "+", _B._Add, _shapes),
    _arithmetic("sub", "-", _B._Sub, _shapes),
    _arithmetic("mul", "*", _B._Mul, _arrays),
    _arithmetic("div", "/", _B._Div, _arrays),
    Kernel(
        "ew_dropres", _F._DropoutResidual,
        source=_DROPRES_C,
        contract=Contract(
            Arr(0), Arr(1), _ADMITTED, Const(2), Const(3),
            Capture("no dropout mask", _mask_free),
        ),
        forward=_forward(
            "repro_ew_dropres_f32", lambda y, r: (None, y.shape, r.shape)
        ),
        fuzz=lambda rng: _fuzz(rng) + (0.0, False, None),
    ),
    Kernel(
        "mul", _B._Mul,
        source=_MUL_BWD_C,
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
