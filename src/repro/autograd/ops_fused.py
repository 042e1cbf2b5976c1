"""Fused elementwise Functions: one tape node where the composition
they replace records two to thirteen.

Each fused op mirrors the *exact* IEEE operation sequence of that
composition, so its forward and backward are bit-identical to it — the
op-level contracts in ``tests/autograd/test_fused_ops.py`` hold the
composition as the oracle and check both, with the buffer arena on and
off, over a generated domain of shapes.  The wins are fewer
Python-level tape nodes, no wasted gradient work (e.g. the full
``grad * scores`` product a ``mul``-by-scalar backward computes for a
constant scale), and arena-pooled temporaries.

Fusion is not a choice: ``repro.nn`` / ``repro.moe`` / ``repro.core``
call these ops wherever one exists, and keep a composition only where
none does (a non-GELU activation, a ``Linear`` without bias).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import arena, stats
from repro.autograd.function import Function, unbroadcast
from repro.autograd.ops_nn import _GELU_C, _dropout_mask
from repro.autograd.tensor import Tensor, as_tensor


def _chainable(*arrays) -> bool:
    """The in-place ``out=`` chains below require one shared float32/64
    dtype; anything else falls back to the plain expressions (which are
    the bitwise reference anyway)."""
    dt = arrays[0].dtype
    if dt != np.float32 and dt != np.float64:
        return False
    return all(a.dtype == dt for a in arrays)


# ----------------------------------------------------------------------
# Shared GELU kernels (tanh approximation), matching ``ops_nn._GELU``
# operation for operation.
# ----------------------------------------------------------------------
def _gelu_fwd(a: np.ndarray):
    """Returns ``(tanh_term, out)`` for GELU(a)."""
    if _chainable(a):
        tmp = arena.empty(a.shape, a.dtype, a)
        np.multiply(a, a, out=tmp)
        np.multiply(tmp, a, out=tmp)
        np.multiply(0.044715, tmp, out=tmp)
        np.add(a, tmp, out=tmp)
        np.multiply(_GELU_C, tmp, out=tmp)
        t = np.tanh(tmp, out=tmp)
        one_t = arena.empty(a.shape, a.dtype, a)
        np.add(1.0, t, out=one_t)
        out = arena.empty(a.shape, a.dtype, a)
        np.multiply(0.5, a, out=out)
        np.multiply(out, one_t, out=out)
        arena.release(one_t)
        return t, out
    inner = _GELU_C * (a + 0.044715 * (a * a * a))
    t = np.tanh(inner)
    return t, 0.5 * a * (1.0 + t)


def _gelu_bwd(grad: np.ndarray, a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``grad * dGELU/da`` given the saved input ``a`` and tanh term ``t``."""
    if _chainable(grad, a, t):
        d = arena.empty(a.shape, a.dtype, a)
        np.multiply(a, a, out=d)
        np.multiply(3 * 0.044715, d, out=d)
        np.add(1.0, d, out=d)
        np.multiply(_GELU_C, d, out=d)  # dinner
        u = arena.empty(a.shape, a.dtype, a)
        np.multiply(t, t, out=u)
        np.subtract(1.0, u, out=u)  # 1 - t^2
        v = arena.empty(a.shape, a.dtype, a)
        np.multiply(0.5, a, out=v)
        np.multiply(v, u, out=v)
        np.multiply(v, d, out=v)  # 0.5*a*(1-t^2)*dinner
        np.add(1.0, t, out=u)
        np.multiply(0.5, u, out=u)  # 0.5*(1+t)
        np.add(u, v, out=u)  # da
        np.multiply(grad, u, out=u)
        arena.release(d)
        arena.release(v)
        return u
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * (a * a))
    da = 0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * dinner
    return grad * da


class _BiasGelu(Function):
    """``gelu(x + bias)`` — replaces an add node and a GELU node."""

    @staticmethod
    def forward(ctx, x, bias):
        if _chainable(x, bias):
            a = arena.empty(np.broadcast_shapes(x.shape, bias.shape), x.dtype, (x, bias))
            np.add(x, bias, out=a)
        else:
            a = x + bias
        t, out = _gelu_fwd(a)
        ctx.save_for_backward(a, t, x.shape, bias.shape)
        return out

    @staticmethod
    def backward(ctx, grad):
        a, t, sx, sb = ctx.saved
        g = _gelu_bwd(grad, a, t)
        return unbroadcast(g, sx), unbroadcast(g, sb)


def bias_gelu(x, bias) -> Tensor:
    """Fused ``gelu(x + bias)`` (bit-identical to the composition)."""
    out = _BiasGelu.apply(as_tensor(x), as_tensor(bias))
    return stats.record_fused("bias_gelu", out, replaced=2)


# ----------------------------------------------------------------------
# Linear (matmul + bias add in one node)
# ----------------------------------------------------------------------
class _LinearBias(Function):
    """``x @ w + b`` — replaces a matmul node and a broadcast-add node.

    Forward adds the bias into the matmul output buffer (``m + b`` with
    ``out=m`` is the same ufunc call the reference composition makes,
    just without a second allocation) when ``b`` has the product's dtype
    and shape-matches its trailing dimensions; any other bias — one that
    promotes the dtype, or broadcasts with ones — takes the allocating
    ``m + b``, which is the composition itself.  ``b`` must broadcast
    into the product's shape: a bias that would widen it is refused, as
    backward reduces the gradient to the bias only after the matmuls.
    Backward mirrors
    ``_MatMul.backward`` + ``_Add.backward`` exactly: same matmuls, same
    ``unbroadcast`` reductions, one tape node instead of two.
    """

    @staticmethod
    def forward(ctx, x, w, b):
        ctx.save_for_backward(x, w, b.shape)
        out = np.matmul(x, w, out=arena.matmul_buf(x, w))
        if b.dtype == out.dtype and b.shape == out.shape[out.ndim - b.ndim:]:
            return np.add(out, b, out=out)
        y = out + b
        if y.shape != out.shape:
            raise ValueError(f"linear_bias: bias {b.shape} widens x @ w's {out.shape}")
        return y

    @staticmethod
    def backward(ctx, grad):
        from repro.autograd.ops_basic import _unbroadcast_release

        x, w, sb = ctx.saved
        gb = unbroadcast(grad, sb)
        wt = w.swapaxes(-1, -2)
        gx = np.matmul(grad, wt, out=arena.matmul_buf(grad, wt))
        xt = x.swapaxes(-1, -2)
        gw = np.matmul(xt, grad, out=arena.matmul_buf(xt, grad))
        if gx.shape != x.shape:
            gx = _unbroadcast_release(gx, x.shape)
        if gw.shape != w.shape:
            gw = _unbroadcast_release(gw, w.shape)
        return gx, gw, gb


def linear_bias(x, w, b) -> Tensor:
    """Fused affine map (bit-identical to ``x @ w + b``)."""
    out = _LinearBias.apply(as_tensor(x), as_tensor(w), as_tensor(b))
    return stats.record_fused("linear_bias", out, replaced=2)


# ----------------------------------------------------------------------
# Dropout + residual
# ----------------------------------------------------------------------
class _DropoutResidual(Function):
    """``residual + dropout(y)`` — the transformer-block skip connection."""

    @staticmethod
    def forward(ctx, y, residual, p, training, rng):
        mask = None
        d = y
        if training and p > 0.0:
            mask = _dropout_mask(y.shape, y.dtype, p, rng)
            if _chainable(y, mask):
                d = arena.empty(y.shape, y.dtype)
                np.multiply(y, mask, out=d)
            else:
                d = y * mask
        ctx.save_for_backward(mask, y.shape, residual.shape)
        if _chainable(residual, d):
            out = arena.empty(np.broadcast_shapes(residual.shape, d.shape), d.dtype)
            return np.add(residual, d, out=out)
        return residual + d

    @staticmethod
    def backward(ctx, grad):
        mask, sy, sr = ctx.saved
        # Reduce a broadcast ``y``'s gradient before masking it, as the
        # add node then the dropout node of the composition do.
        gy = unbroadcast(grad, sy)
        if mask is not None:
            if _chainable(gy, mask):
                gy = np.multiply(gy, mask, out=arena.empty(gy.shape, gy.dtype))
            else:
                gy = gy * mask
        return gy, unbroadcast(grad, sr)


def dropout_residual(y, residual, p: float, training: bool = True, rng=None) -> Tensor:
    """Fused ``residual + dropout(y)``, bit-identical to the composition
    built from the reference ops, including the dropout RNG draw."""
    live = training and p > 0.0
    out = _DropoutResidual.apply(
        as_tensor(y), as_tensor(residual), float(p), bool(training), rng
    )
    # dropout records no node when it is the identity.
    return stats.record_fused("dropout_residual", out, replaced=2 if live else 1)


# ----------------------------------------------------------------------
# Scale + causal mask + softmax (attention scores)
# ----------------------------------------------------------------------
def _masked_softmax_fwd(s: np.ndarray, mask: np.ndarray, scale) -> np.ndarray:
    """``softmax(where(mask, s * scale, -1e9))`` over the last axis."""
    if _chainable(s):
        buf = arena.empty(s.shape, s.dtype)
        np.multiply(s, scale, out=buf)
        np.copyto(buf, np.float32(-1e9), where=~mask)
        np.subtract(buf, buf.max(axis=-1, keepdims=True), out=buf)
        np.exp(buf, out=buf)
        return np.divide(buf, buf.sum(axis=-1, keepdims=True), out=buf)
    scores = s * scale
    masked = np.where(mask, scores, np.float32(-1e9))
    shifted = masked - masked.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _masked_softmax_bwd(
    grad: np.ndarray, out: np.ndarray, mask: np.ndarray, scale
) -> np.ndarray:
    """Gradient of :func:`_masked_softmax_fwd` w.r.t. ``s`` given its
    saved output ``out``."""
    if _chainable(grad, out):
        buf = arena.empty(grad.shape, grad.dtype)
        np.multiply(grad, out, out=buf)
        dot = buf.sum(axis=-1, keepdims=True)
        np.subtract(grad, dot, out=buf)
        np.multiply(out, buf, out=buf)
        np.copyto(buf, 0.0, where=~mask)
        return np.multiply(buf, scale, out=buf)
    dot = (grad * out).sum(axis=-1, keepdims=True)
    gs = out * (grad - dot)
    gs = np.where(mask, gs, 0.0)
    return gs * scale


class _MaskedSoftmax(Function):
    """``softmax(where(mask, scores * scale, -1e9))`` in one node.

    Beyond the node-count savings, this skips the two wasted full-size
    products the composition computes for gradients of the constant
    scale and mask-fill tensors.
    """

    @staticmethod
    def forward(ctx, s, mask, scale):
        out = _masked_softmax_fwd(s, mask, scale)
        ctx.save_for_backward(out, mask, scale)
        return out

    @staticmethod
    def backward(ctx, grad):
        return (_masked_softmax_bwd(grad, *ctx.saved),)


def masked_softmax(scores, mask, scale: float) -> Tensor:
    """Fused ``softmax(where(mask, scores * scale, -1e9), axis=-1)``.

    ``mask`` is a boolean array broadcastable against ``scores`` (True =
    keep).  ``scale`` is coerced to float32 exactly as ``Tensor(float)``
    would, so the fused product matches the reference ``mul`` node.
    """
    mask_data = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    out = _MaskedSoftmax.apply(as_tensor(scores), mask_data, np.float32(scale))
    return stats.record_fused("masked_softmax", out, replaced=3)


# ----------------------------------------------------------------------
# Attention core: qkv split -> scores -> masked softmax -> context merge
# ----------------------------------------------------------------------
def _release_unless_aliased(buf, result):
    """Release ``buf`` back to the arena unless ``result`` is a view of
    it — ``arena.reshaped`` of a transpose returns a view instead of a
    copy for degenerate shapes (single head, seq length 1)."""
    r = result
    while r.base is not None:
        r = r.base
    b = buf
    while b.base is not None:
        b = b.base
    if r is not b:
        arena.release(buf)


class _AttentionCore(Function):
    """The whole scaled-dot-product block between the QKV projection and
    the output projection, as a single tape node.

    Replaces thirteen nodes per attention call — reshape, transpose,
    three slice views, key transpose, two matmuls, the scale / mask-fill
    / softmax trio, and the head-merge transpose and reshape — with one.
    Forward and backward replay the exact ufunc sequence those nodes
    would run (same matmuls, ``_MaskedSoftmax``'s own two kernels, the
    same zero-initialised slot accumulation for the q/k/v gradients), so
    the result is bit-identical to the composition.  Only valid when
    attention dropout is inactive; ``CausalSelfAttention`` takes
    :func:`masked_softmax` otherwise.
    """

    @staticmethod
    def forward(ctx, qkv, mask, scale, num_heads, head_dim):
        batch, seq, _ = qkv.shape
        qkv5 = qkv.reshape(batch, seq, 3, num_heads, head_dim).transpose(
            2, 0, 3, 1, 4
        )
        q, k, v = qkv5[0], qkv5[1], qkv5[2]
        kt = k.transpose(0, 1, 3, 2)
        scores = np.matmul(q, kt, out=arena.matmul_buf(q, kt))
        probs = _masked_softmax_fwd(scores, mask, scale)
        arena.release(scores)
        ctx4 = np.matmul(probs, v, out=arena.matmul_buf(probs, v))
        merged = arena.reshaped(
            ctx4.transpose(0, 2, 1, 3), (batch, seq, num_heads * head_dim)
        )
        _release_unless_aliased(ctx4, merged)
        ctx.save_for_backward(qkv, probs, mask, scale, (batch, seq, num_heads, head_dim))
        return merged

    @staticmethod
    def backward(ctx, grad):
        qkv, probs, mask, scale, dims = ctx.saved
        batch, seq, num_heads, head_dim = dims
        qkv5 = qkv.reshape(batch, seq, 3, num_heads, head_dim).transpose(
            2, 0, 3, 1, 4
        )
        q, k, v = qkv5[0], qkv5[1], qkv5[2]
        # Head-merge reshape + transpose backward (views; grad is C-order).
        g_ctx = np.transpose(
            arena.reshaped(grad, (batch, seq, num_heads, head_dim)), (0, 2, 1, 3)
        )
        # probs @ v backward — operand shapes match, so no unbroadcast.
        bt = v.swapaxes(-1, -2)
        g_probs = np.matmul(g_ctx, bt, out=arena.matmul_buf(g_ctx, bt))
        at = probs.swapaxes(-1, -2)
        g_v = np.matmul(at, g_ctx, out=arena.matmul_buf(at, g_ctx))
        g_scores = _masked_softmax_bwd(g_probs, probs, mask, scale)
        arena.release(g_probs)
        # q @ k^T backward; the key-transpose perm is self-inverse.
        g_q = np.matmul(g_scores, k, out=arena.matmul_buf(g_scores, k))
        at = q.swapaxes(-1, -2)
        g_kt = np.matmul(at, g_scores, out=arena.matmul_buf(at, g_scores))
        arena.release(g_scores)
        g_k = g_kt.transpose(0, 1, 3, 2)
        # Slice gradients occupy disjoint slots of the stacked buffer, so
        # direct writes plus one ``+ 0.0`` pass reproduce the reference
        # zeros-init + add accumulation bit for bit (including -0.0).
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


def attention_core(qkv, mask, scale: float, num_heads: int, head_dim: int) -> Tensor:
    """Fused causal-attention core: ``qkv`` of shape (B, S, 3·H) in,
    merged context of shape (B, S, H) out.  Bit-identical to the
    reshape/split/matmul/softmax/merge composition; only valid when
    attention dropout is inactive.
    """
    mask_data = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    out = _AttentionCore.apply(
        as_tensor(qkv), mask_data, np.float32(scale), int(num_heads), int(head_dim)
    )
    return stats.record_fused("attention_core", out, replaced=13)


# ----------------------------------------------------------------------
# Softmax cross-entropy with an in-place backward
# ----------------------------------------------------------------------
class _FusedSoftmaxCrossEntropy(Function):
    """``ops_loss._CrossEntropy`` with pooled temporaries and a backward
    that exponentiates/normalizes the saved log-probs in place instead of
    allocating two fresh ``(tokens, vocab)`` arrays per step."""

    @staticmethod
    def forward(ctx, logits, targets, ignore_index=-100):
        flat = logits.reshape(-1, logits.shape[-1])
        # astype here, not in the wrapper, so a captured graph reads the
        # live target array per replay (repro.autograd.graph).
        tgt = targets.astype(np.int64, copy=False).reshape(-1)
        valid = tgt != ignore_index
        n_valid = max(int(valid.sum()), 1)

        if _chainable(flat):
            shifted = arena.empty(flat.shape, flat.dtype)
            np.subtract(flat, flat.max(axis=-1, keepdims=True), out=shifted)
            e = arena.empty(flat.shape, flat.dtype)
            np.exp(shifted, out=e)
            log_z = np.log(e.sum(axis=-1, keepdims=True))
            arena.release(e)
            log_probs = np.subtract(shifted, log_z, out=shifted)
        else:
            shifted = flat - flat.max(axis=-1, keepdims=True)
            log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            log_probs = shifted - log_z

        safe_tgt = np.where(valid, tgt, 0)
        picked = log_probs[np.arange(flat.shape[0]), safe_tgt]
        loss = -(picked * valid).sum() / n_valid

        ctx.save_for_backward(log_probs, safe_tgt, valid, n_valid, logits.shape)
        # A replay's loss lands in the same 0-d array every time.
        out = arena.empty((), flat.dtype)
        out[...] = loss
        return out

    @staticmethod
    def backward(ctx, grad):
        log_probs, tgt, valid, n_valid, shape = ctx.saved
        # The tape replays once, so log_probs can be destroyed in place.
        probs = np.exp(log_probs, out=log_probs)
        probs[np.arange(probs.shape[0]), tgt] -= 1.0
        probs *= (valid / n_valid)[:, None]
        if _chainable(probs) and grad.dtype == probs.dtype:
            np.multiply(grad, probs, out=probs)
            return (probs.reshape(shape),)
        return (grad * probs.reshape(shape),)


def softmax_cross_entropy(logits, targets, ignore_index: int = -100) -> Tensor:
    """Fused mean cross-entropy (bit-identical to ``cross_entropy``)."""
    tgt = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    out = _FusedSoftmaxCrossEntropy.apply(
        as_tensor(logits), tgt, ignore_index=ignore_index
    )
    # One node either way: the win is the in-place backward.
    return stats.record_fused("softmax_cross_entropy", out, replaced=1)
