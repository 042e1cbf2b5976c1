"""Neural-network primitives: activations, normalization, embedding,
dropout, and the row gather/scatter ops the MoE permutation relies on."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import arena
from repro.autograd.function import Function
from repro.autograd.ops_basic import _scatter_add_rows
from repro.autograd.tensor import Tensor, as_tensor
from repro.utils.rng import get_rng


def _plain_float(*arrays) -> bool:
    """True when every array shares one floating dtype — the precondition
    for the in-place ``out=`` chains below to match NumPy's fresh-
    allocation arithmetic bit for bit."""
    dt = arrays[0].dtype
    if not np.issubdtype(dt, np.floating):
        return False
    return all(a.dtype == dt for a in arrays)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
class _ReLU(Function):
    @staticmethod
    def forward(ctx, a):
        mask = a > 0
        ctx.save_for_backward(mask)
        return a * mask

    @staticmethod
    def backward(ctx, grad):
        (mask,) = ctx.saved
        return (grad * mask,)


_GELU_C = np.sqrt(2.0 / np.pi).astype(np.float32)


class _GELU(Function):
    """Tanh-approximation GELU, as used by GPT-2/Megatron-LM."""

    @staticmethod
    def forward(ctx, a):
        # a*a*a, not a**3: np.power's scalar-exponent loop is ~100x
        # slower than two multiplies and this is the hottest activation.
        inner = _GELU_C * (a + 0.044715 * (a * a * a))
        t = np.tanh(inner)
        ctx.save_for_backward(a, t)
        return 0.5 * a * (1.0 + t)

    @staticmethod
    def backward(ctx, grad):
        a, t = ctx.saved
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (a * a))
        da = 0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * dinner
        return (grad * da,)


class _Sigmoid(Function):
    @staticmethod
    def forward(ctx, a):
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx, grad):
        (out,) = ctx.saved
        return (grad * out * (1.0 - out),)


def relu(a) -> Tensor:
    return _ReLU.apply(as_tensor(a))


def gelu(a) -> Tensor:
    return _GELU.apply(as_tensor(a))


def sigmoid(a) -> Tensor:
    return _Sigmoid.apply(as_tensor(a))


ACTIVATIONS = {"relu": relu, "gelu": gelu, "sigmoid": sigmoid}


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
class _Softmax(Function):
    @staticmethod
    def forward(ctx, a, axis=-1):
        if _plain_float(a):
            # One buffer end to end: subtract, exponentiate, normalize.
            buf = arena.empty(a.shape, a.dtype)
            np.subtract(a, a.max(axis=axis, keepdims=True), out=buf)
            np.exp(buf, out=buf)
            out = np.divide(buf, buf.sum(axis=axis, keepdims=True), out=buf)
        else:
            shifted = a - a.max(axis=axis, keepdims=True)
            e = np.exp(shifted)
            out = e / e.sum(axis=axis, keepdims=True)
        ctx.save_for_backward(out, axis)
        return out

    @staticmethod
    def backward(ctx, grad):
        out, axis = ctx.saved
        if _plain_float(grad, out):
            buf = arena.empty(grad.shape, grad.dtype)
            np.multiply(grad, out, out=buf)
            dot = buf.sum(axis=axis, keepdims=True)
            np.subtract(grad, dot, out=buf)
            np.multiply(out, buf, out=buf)
            return (buf,)
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)


class _LogSoftmax(Function):
    @staticmethod
    def forward(ctx, a, axis=-1):
        shifted = a - a.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - log_z
        ctx.save_for_backward(out, axis)
        return out

    @staticmethod
    def backward(ctx, grad):
        out, axis = ctx.saved
        softmax = np.exp(out)
        return (grad - softmax * grad.sum(axis=axis, keepdims=True),)


def softmax(a, axis: int = -1) -> Tensor:
    return _Softmax.apply(as_tensor(a), axis=axis)


def log_softmax(a, axis: int = -1) -> Tensor:
    return _LogSoftmax.apply(as_tensor(a), axis=axis)


# ----------------------------------------------------------------------
# Layer normalization
# ----------------------------------------------------------------------
class _LayerNorm(Function):
    """Normalize over the last axis with learnable scale/shift."""

    @staticmethod
    def forward(ctx, x, weight, bias, eps=1e-5):
        if not _plain_float(x, weight, bias):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + eps)
            xhat = (x - mu) * inv
            ctx.save_for_backward(xhat, inv, weight)
            return xhat * weight + bias
        mu = x.mean(axis=-1, keepdims=True)
        # Manual variance — the same mean/subtract/multiply/mean sequence
        # ``np.var`` performs internally, but through reusable buffers.
        d = arena.empty(x.shape, x.dtype)
        np.subtract(x, mu, out=d)
        sq = arena.empty(x.shape, x.dtype)
        np.multiply(d, d, out=sq)
        var = sq.mean(axis=-1, keepdims=True)
        arena.release(sq)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = np.multiply(d, inv, out=d)
        ctx.save_for_backward(xhat, inv, weight)
        out = arena.empty(x.shape, x.dtype)
        np.multiply(xhat, weight, out=out)
        return np.add(out, bias, out=out)

    @staticmethod
    def backward(ctx, grad):
        xhat, inv, weight = ctx.saved
        n = xhat.shape[-1]
        lead = tuple(range(grad.ndim - 1))
        if not _plain_float(grad, xhat, weight):
            gw = (grad * xhat).sum(axis=lead)
            gb = grad.sum(axis=lead)
            gx_hat = grad * weight
            gx = (
                inv
                / n
                * (
                    n * gx_hat
                    - gx_hat.sum(axis=-1, keepdims=True)
                    - xhat * (gx_hat * xhat).sum(axis=-1, keepdims=True)
                )
            )
            return gx, gw, gb
        tmp = arena.empty(grad.shape, grad.dtype)
        np.multiply(grad, xhat, out=tmp)
        gw = tmp.sum(axis=lead)
        gb = grad.sum(axis=lead)
        gx_hat = np.multiply(grad, weight, out=tmp)  # tmp repurposed
        s1 = gx_hat.sum(axis=-1, keepdims=True)
        p = arena.empty(grad.shape, grad.dtype)
        np.multiply(gx_hat, xhat, out=p)
        s2 = p.sum(axis=-1, keepdims=True)
        np.multiply(xhat, s2, out=p)  # p := xhat * (gx_hat·xhat)
        np.multiply(n, gx_hat, out=gx_hat)
        np.subtract(gx_hat, s1, out=gx_hat)
        np.subtract(gx_hat, p, out=gx_hat)
        arena.release(p)
        gx = np.multiply(inv / n, gx_hat, out=gx_hat)
        return gx, gw, gb


def layer_norm(x, weight, bias, eps: float = 1e-5) -> Tensor:
    return _LayerNorm.apply(as_tensor(x), as_tensor(weight), as_tensor(bias), eps=eps)


# ----------------------------------------------------------------------
# Dropout
# ----------------------------------------------------------------------
def _dropout_mask(shape, dtype, p, rng):
    """The inverted-dropout mask: 0 or ``1 / (1 - p)`` per element."""
    keep = 1.0 - p
    return (get_rng(rng).random(shape) < keep).astype(dtype) / keep


class _Dropout(Function):
    @staticmethod
    def forward(ctx, a, p, rng):
        mask = _dropout_mask(a.shape, a.dtype, p, rng)
        ctx.save_for_backward(mask)
        return a * mask

    @staticmethod
    def backward(ctx, grad):
        (mask,) = ctx.saved
        return (grad * mask,)


def dropout(a, p: float, training: bool = True, rng=None) -> Tensor:
    """Inverted dropout: identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return as_tensor(a)
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    return _Dropout.apply(as_tensor(a), float(p), rng)


# ----------------------------------------------------------------------
# Embedding lookup
# ----------------------------------------------------------------------
class _Embedding(Function):
    @staticmethod
    def forward(ctx, weight, ids):
        # Index dtype is normalized here rather than in the wrapper so a
        # captured graph resolves the caller's *live* id array instead of
        # freezing a converted copy (repro.autograd.graph).
        ids = ids.astype(np.int64, copy=False)
        ctx.save_for_backward(weight.shape, ids)
        out = arena.out_buf(ids.shape + (weight.shape[1],), weight.dtype)
        if out is None:
            return weight[ids]
        weight.take(ids, axis=0, out=out)
        return out

    @staticmethod
    def backward(ctx, grad):
        shape, ids = ctx.saved
        gw = arena.zeros(shape, grad.dtype)
        _scatter_add_rows(gw, ids.reshape(-1), grad.reshape(-1, shape[-1]))
        return (gw,)


def embedding(weight, ids) -> Tensor:
    """Row lookup ``weight[ids]`` with scatter-add backward."""
    ids_data = ids.data if isinstance(ids, Tensor) else np.asarray(ids)
    return _Embedding.apply(as_tensor(weight), ids_data)


# ----------------------------------------------------------------------
# Row gather / scatter — the permutation primitives for MoE layers.
# ----------------------------------------------------------------------
class _GatherRows(Function):
    """``out[i] = x[indices[i]]`` over the first axis.

    Padding convention: an index of ``-1`` produces a zero row, which is
    how ``padded_gather`` fills expert batches up to a block multiple.
    """

    @staticmethod
    def forward(ctx, x, indices):
        # astype inside forward: keeps capture specs bound to the live
        # index array (see _Embedding.forward).
        indices = indices.astype(np.int64, copy=False)
        ctx.save_for_backward(x.shape, indices)
        out = arena.out_buf((len(indices),) + x.shape[1:], x.dtype)
        if out is not None:
            x.take(indices.clip(0), axis=0, out=out)
        else:
            out = x[indices.clip(0)]
        out[indices < 0] = 0.0
        return out

    @staticmethod
    def backward(ctx, grad):
        shape, indices = ctx.saved
        gx = arena.zeros(shape, grad.dtype)
        valid = indices >= 0
        _scatter_add_rows(gx, indices[valid], grad[valid])
        return (gx,)


class _ScatterRows(Function):
    """``out[indices[i]] += x[i]`` producing ``num_rows`` rows.

    Rows of ``x`` whose index is ``-1`` (padding) are discarded.  Duplicate
    indices accumulate, which implements the top-k weighted sum during
    un-permutation.
    """

    @staticmethod
    def forward(ctx, x, indices, num_rows):
        indices = indices.astype(np.int64, copy=False)
        ctx.save_for_backward(indices, x.shape)
        out = arena.zeros((num_rows,) + x.shape[1:], x.dtype)
        valid = indices >= 0
        _scatter_add_rows(out, indices[valid], x[valid])
        return out

    @staticmethod
    def backward(ctx, grad):
        indices, shape = ctx.saved
        gx = arena.zeros(shape, grad.dtype)
        valid = indices >= 0
        gx[valid] = grad[indices[valid]]
        return (gx,)


def gather_rows(x, indices) -> Tensor:
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    return _GatherRows.apply(as_tensor(x), idx)


def scatter_rows(x, indices, num_rows: int) -> Tensor:
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    return _ScatterRows.apply(as_tensor(x), idx, int(num_rows))
