"""Elementwise, reduction, and linear-algebra primitives.

Every public function takes/returns :class:`~repro.autograd.tensor.Tensor`
and is differentiable.  Operator overloads (``+``, ``@``, slicing, ...) are
registered onto ``Tensor`` at import time.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import arena
from repro.autograd.function import Context, Function, unbroadcast
from repro.autograd.tensor import Tensor, as_tensor, register_tensor_op


def _unbroadcast_release(grad: np.ndarray, shape) -> np.ndarray:
    """``unbroadcast`` that returns the full-size temporary to the arena
    when summing produced a smaller replacement buffer."""
    out = unbroadcast(grad, shape)
    if out is not grad:
        arena.release(grad)
    return out


# ----------------------------------------------------------------------
# Elementwise binary
# ----------------------------------------------------------------------
class _Add(Function):
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a.shape, b.shape)
        return np.add(a, b, out=arena.binary_buf(a, b))

    @staticmethod
    def backward(ctx, grad):
        sa, sb = ctx.saved
        return unbroadcast(grad, sa), unbroadcast(grad, sb)


class _Sub(Function):
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a.shape, b.shape)
        return np.subtract(a, b, out=arena.binary_buf(a, b))

    @staticmethod
    def backward(ctx, grad):
        sa, sb = ctx.saved
        ng = np.negative(grad, out=arena.out_buf(grad.shape, grad.dtype))
        return unbroadcast(grad, sa), _unbroadcast_release(ng, sb)


class _Mul(Function):
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a, b)
        return np.multiply(a, b, out=arena.binary_buf(a, b))

    @staticmethod
    def backward(ctx, grad):
        a, b = ctx.saved
        ga_full = np.multiply(grad, b, out=arena.binary_buf(grad, b))
        gb_full = np.multiply(grad, a, out=arena.binary_buf(grad, a))
        return (
            _unbroadcast_release(ga_full, a.shape),
            _unbroadcast_release(gb_full, b.shape),
        )


class _Div(Function):
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a, b)
        if a.dtype.kind in "biu" and b.dtype.kind in "biu":
            return a / b  # promotes past both operands' dtype
        return np.divide(a, b, out=arena.binary_buf(a, b))

    @staticmethod
    def backward(ctx, grad):
        a, b = ctx.saved
        ga = unbroadcast(grad / b, a.shape)
        gb = unbroadcast(-grad * a / (b * b), b.shape)
        return ga, gb


class _Pow(Function):
    @staticmethod
    def forward(ctx, a, exponent: float):
        ctx.save_for_backward(a, exponent)
        return a**exponent

    @staticmethod
    def backward(ctx, grad):
        a, e = ctx.saved
        return (grad * e * a ** (e - 1),)


class _Maximum(Function):
    @staticmethod
    def forward(ctx, a, b):
        mask = a >= b
        ctx.save_for_backward(mask, a.shape, b.shape)
        return np.maximum(a, b)

    @staticmethod
    def backward(ctx, grad):
        mask, sa, sb = ctx.saved
        return unbroadcast(grad * mask, sa), unbroadcast(grad * ~mask, sb)


def add(a, b) -> Tensor:
    return _Add.apply(as_tensor(a), as_tensor(b))


def sub(a, b) -> Tensor:
    return _Sub.apply(as_tensor(a), as_tensor(b))


def mul(a, b) -> Tensor:
    return _Mul.apply(as_tensor(a), as_tensor(b))


def div(a, b) -> Tensor:
    return _Div.apply(as_tensor(a), as_tensor(b))


def pow_(a, exponent: float) -> Tensor:
    return _Pow.apply(as_tensor(a), float(exponent))


def maximum(a, b) -> Tensor:
    return _Maximum.apply(as_tensor(a), as_tensor(b))


# ----------------------------------------------------------------------
# Elementwise unary
# ----------------------------------------------------------------------
class _Neg(Function):
    @staticmethod
    def forward(ctx, a):
        return -a

    @staticmethod
    def backward(ctx, grad):
        return (-grad,)


class _Exp(Function):
    @staticmethod
    def forward(ctx, a):
        out = np.exp(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad):
        (out,) = ctx.saved
        return (grad * out,)


class _Log(Function):
    @staticmethod
    def forward(ctx, a):
        ctx.save_for_backward(a)
        return np.log(a)

    @staticmethod
    def backward(ctx, grad):
        (a,) = ctx.saved
        return (grad / a,)


class _Sqrt(Function):
    @staticmethod
    def forward(ctx, a):
        out = np.sqrt(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad):
        (out,) = ctx.saved
        return (grad / (2.0 * out),)


class _Tanh(Function):
    @staticmethod
    def forward(ctx, a):
        out = np.tanh(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad):
        (out,) = ctx.saved
        return (grad * (1.0 - out * out),)


class _Abs(Function):
    @staticmethod
    def forward(ctx, a):
        ctx.save_for_backward(np.sign(a))
        return np.abs(a)

    @staticmethod
    def backward(ctx, grad):
        (sign,) = ctx.saved
        return (grad * sign,)


def neg(a) -> Tensor:
    return _Neg.apply(as_tensor(a))


def exp(a) -> Tensor:
    return _Exp.apply(as_tensor(a))


def log(a) -> Tensor:
    return _Log.apply(as_tensor(a))


def sqrt(a) -> Tensor:
    return _Sqrt.apply(as_tensor(a))


def tanh(a) -> Tensor:
    return _Tanh.apply(as_tensor(a))


def abs_(a) -> Tensor:
    return _Abs.apply(as_tensor(a))


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _normalize_axis(axis, ndim) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _reduce_out(a, axis, keepdims) -> Optional[np.ndarray]:
    """``out=`` target of a float reduction of ``a`` (``None`` outside a
    steady scope): a replayed step reads the same result array every
    time, so the units downstream stay bound to it."""
    if a.dtype.kind != "f":
        return None
    if axis is None:
        shape = (1,) * a.ndim if keepdims else ()
    else:
        shape = tuple(
            1 if i in axis else n
            for i, n in enumerate(a.shape)
            if keepdims or i not in axis
        )
    return arena.out_buf(shape, a.dtype)


class _Sum(Function):
    @staticmethod
    def forward(ctx, a, axis=None, keepdims=False):
        axis = _normalize_axis(axis, a.ndim)
        ctx.save_for_backward(a.shape, axis, keepdims)
        return a.sum(axis=axis, keepdims=keepdims, out=_reduce_out(a, axis, keepdims))

    @staticmethod
    def backward(ctx, grad):
        shape, axis, keepdims = ctx.saved
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        buf = arena.empty(shape, grad.dtype)
        np.copyto(buf, grad)
        return (buf,)


class _Mean(Function):
    @staticmethod
    def forward(ctx, a, axis=None, keepdims=False):
        axis = _normalize_axis(axis, a.ndim)
        count = a.size if axis is None else int(np.prod([a.shape[i] for i in axis]))
        ctx.save_for_backward(a.shape, axis, keepdims, count)
        return a.mean(axis=axis, keepdims=keepdims, out=_reduce_out(a, axis, keepdims))

    @staticmethod
    def backward(ctx, grad):
        shape, axis, keepdims, count = ctx.saved
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        expanded = np.broadcast_to(grad, shape)
        if grad.dtype.kind in "biu":
            return (expanded / count,)  # promotes past grad's dtype
        return (np.divide(expanded, count, out=arena.out_buf(shape, grad.dtype)),)


class _Max(Function):
    @staticmethod
    def forward(ctx, a, axis=None, keepdims=False):
        axis = _normalize_axis(axis, a.ndim)
        out = a.max(axis=axis, keepdims=True if axis is not None else keepdims)
        # Gradient splits evenly among ties, matching numerical convention.
        full = a.max(axis=axis, keepdims=True) if axis is not None else a.max()
        mask = (a == full).astype(a.dtype)
        mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        ctx.save_for_backward(mask, axis, keepdims)
        if axis is not None and not keepdims:
            out = np.squeeze(out, axis=axis)
        return out

    @staticmethod
    def backward(ctx, grad):
        mask, axis, keepdims = ctx.saved
        if axis is not None and not keepdims:
            grad = np.expand_dims(grad, axis)
        return (grad * mask,)


def sum_(a, axis=None, keepdims=False) -> Tensor:
    return _Sum.apply(as_tensor(a), axis=axis, keepdims=keepdims)


def mean(a, axis=None, keepdims=False) -> Tensor:
    return _Mean.apply(as_tensor(a), axis=axis, keepdims=keepdims)


def max_(a, axis=None, keepdims=False) -> Tensor:
    return _Max.apply(as_tensor(a), axis=axis, keepdims=keepdims)


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
class _Reshape(Function):
    @staticmethod
    def forward(ctx, a, shape):
        ctx.save_for_backward(a.shape)
        return arena.reshaped(a, shape)

    @staticmethod
    def backward(ctx, grad):
        (shape,) = ctx.saved
        return (arena.reshaped(grad, shape),)


class _Transpose(Function):
    @staticmethod
    def forward(ctx, a, axes=None):
        if axes is None:
            axes = tuple(reversed(range(a.ndim)))
        ctx.save_for_backward(tuple(np.argsort(axes)))
        return np.transpose(a, axes)

    @staticmethod
    def backward(ctx, grad):
        (inverse,) = ctx.saved
        return (np.transpose(grad, inverse),)


def _scatter_add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(out, idx, rows)`` via stable sort + segment reduce.

    ``ufunc.at`` runs an interpreted per-element inner loop and is the
    single most expensive call in a training step; sorting the indices
    and reducing each segment with ``np.add.reduceat`` does the same
    accumulation with a handful of vectorized calls.  Duplicate indices
    sum in a (deterministic) pairwise order rather than ``add.at``'s
    strictly sequential one, so this is the accumulation everywhere —
    both the reference and steady-state paths — keeping the two modes
    bit-identical to each other.
    """
    if idx.size < 16:
        np.add.at(out, idx, rows)
        return
    order = idx.argsort(kind="stable")
    sidx = idx[order]
    srows = rows.take(order, axis=0)
    seg_starts = np.empty(sidx.shape, dtype=bool)
    seg_starts[0] = True
    np.not_equal(sidx[1:], sidx[:-1], out=seg_starts[1:])
    starts = np.flatnonzero(seg_starts)
    out[sidx[starts]] += np.add.reduceat(srows, starts, axis=0)


class _GetItem(Function):
    @staticmethod
    def forward(ctx, a, index):
        ctx.save_for_backward(a.shape, index)
        return a[index]

    @staticmethod
    def backward(ctx, grad):
        shape, index = ctx.saved
        out = arena.zeros(shape, grad.dtype)
        if (
            type(index) is tuple
            and len(index) == 2
            and len(shape) == 2
            and isinstance(index[0], np.ndarray)
            and isinstance(index[1], np.ndarray)
            and index[0].shape == index[1].shape
            and index[0].dtype.kind in "iu"
            and index[1].dtype.kind in "iu"
            and grad.shape == index[0].shape
            and index[0].min(initial=0) >= 0
            and index[1].min(initial=0) >= 0
        ):
            # The router's ``x[arange(n), expert]`` pattern (1-D or keepdim
            # column variants): scatter into flat linear indices instead of
            # ufunc.at's per-element loop.
            flat = index[0].astype(np.int64) * shape[1] + index[1]
            _scatter_add_rows(out.reshape(-1), flat.reshape(-1), grad.reshape(-1))
        elif (
            isinstance(index, np.ndarray)
            and index.ndim == 1
            and index.dtype.kind in "iu"
            and len(shape) == 2
            and grad.shape == (index.shape[0],) + tuple(shape[1:])
            and index.min(initial=0) >= 0
        ):
            # Row gather ``x[idx]`` on a matrix: segment-reduce the rows.
            _scatter_add_rows(out, index, grad)
        else:
            np.add.at(out, index, grad)
        return (out,)


class _Concatenate(Function):
    @staticmethod
    def forward(ctx, *arrays, axis=0):
        ctx.save_for_backward(axis, [a.shape[axis] for a in arrays])
        return np.concatenate(arrays, axis=axis)

    @staticmethod
    def backward(ctx, grad):
        axis, sizes = ctx.saved
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, splits, axis=axis))


class _Stack(Function):
    @staticmethod
    def forward(ctx, *arrays, axis=0):
        ctx.save_for_backward(axis)
        return np.stack(arrays, axis=axis)

    @staticmethod
    def backward(ctx, grad):
        (axis,) = ctx.saved
        parts = np.split(grad, grad.shape[axis], axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)


def reshape(a, shape) -> Tensor:
    return _Reshape.apply(as_tensor(a), tuple(shape))


def transpose(a, axes=None) -> Tensor:
    return _Transpose.apply(as_tensor(a), axes)


def getitem(a, index) -> Tensor:
    if isinstance(index, Tensor):
        index = index.data
    return _GetItem.apply(as_tensor(a), index)


def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    return _Concatenate.apply(*[as_tensor(t) for t in tensors], axis=axis)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    return _Stack.apply(*[as_tensor(t) for t in tensors], axis=axis)


# ----------------------------------------------------------------------
# Matrix multiplication (supports batched inputs via numpy semantics)
# ----------------------------------------------------------------------
class _MatMul(Function):
    @staticmethod
    def forward(ctx, a, b):
        ctx.save_for_backward(a, b)
        return np.matmul(a, b, out=arena.matmul_buf(a, b))

    @staticmethod
    def backward(ctx, grad):
        a, b = ctx.saved
        bt = b.swapaxes(-1, -2)
        ga = np.matmul(grad, bt, out=arena.matmul_buf(grad, bt))
        at = a.swapaxes(-1, -2)
        gb = np.matmul(at, grad, out=arena.matmul_buf(at, grad))
        # Handle broadcasting over batch dims.
        if ga.shape != a.shape:
            ga = _unbroadcast_release(ga, a.shape)
        if gb.shape != b.shape:
            gb = _unbroadcast_release(gb, b.shape)
        return ga, gb


def matmul(a, b) -> Tensor:
    return _MatMul.apply(as_tensor(a), as_tensor(b))


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
class _Where(Function):
    @staticmethod
    def forward(ctx, cond, a, b):
        ctx.save_for_backward(cond, a.shape, b.shape)
        return np.where(cond, a, b)

    @staticmethod
    def backward(ctx, grad):
        cond, sa, sb = ctx.saved
        ga = unbroadcast(np.where(cond, grad, 0.0), sa)
        gb = unbroadcast(np.where(cond, 0.0, grad), sb)
        return ga, gb


def where(cond, a, b) -> Tensor:
    cond_data = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    return _Where.apply(cond_data, as_tensor(a), as_tensor(b))


class _Clip(Function):
    @staticmethod
    def forward(ctx, a, lo, hi):
        ctx.save_for_backward((a >= lo) & (a <= hi))
        return a.clip(lo, hi)

    @staticmethod
    def backward(ctx, grad):
        (mask,) = ctx.saved
        return (grad * mask,)


def clip(a, lo: float, hi: float) -> Tensor:
    return _Clip.apply(as_tensor(a), float(lo), float(hi))


# ----------------------------------------------------------------------
# Operator registration on Tensor
# ----------------------------------------------------------------------
def _register_operators() -> None:
    register_tensor_op("__add__", lambda self, other: add(self, other))
    register_tensor_op("__radd__", lambda self, other: add(other, self))
    register_tensor_op("__sub__", lambda self, other: sub(self, other))
    register_tensor_op("__rsub__", lambda self, other: sub(other, self))
    register_tensor_op("__mul__", lambda self, other: mul(self, other))
    register_tensor_op("__rmul__", lambda self, other: mul(other, self))
    register_tensor_op("__truediv__", lambda self, other: div(self, other))
    register_tensor_op("__rtruediv__", lambda self, other: div(other, self))
    register_tensor_op("__pow__", lambda self, e: pow_(self, e))
    register_tensor_op("__neg__", lambda self: neg(self))
    register_tensor_op("__matmul__", lambda self, other: matmul(self, other))
    register_tensor_op("__getitem__", lambda self, idx: getitem(self, idx))
    register_tensor_op("sum", lambda self, axis=None, keepdims=False: sum_(self, axis, keepdims))
    register_tensor_op("mean", lambda self, axis=None, keepdims=False: mean(self, axis, keepdims))
    register_tensor_op("max", lambda self, axis=None, keepdims=False: max_(self, axis, keepdims))
    register_tensor_op("reshape", lambda self, *shape: reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape))
    register_tensor_op("transpose", lambda self, axes=None: transpose(self, axes))
    register_tensor_op("exp", lambda self: exp(self))
    register_tensor_op("log", lambda self: log(self))
    register_tensor_op("sqrt", lambda self: sqrt(self))
    register_tensor_op("tanh", lambda self: tanh(self))
    register_tensor_op("abs", lambda self: abs_(self))
    register_tensor_op("clip", lambda self, lo, hi: clip(self, lo, hi))


_register_operators()
