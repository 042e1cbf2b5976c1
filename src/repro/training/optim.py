"""Optimizers and gradient utilities (Adam as in Megatron-LM defaults).

For fp32 parameters the ``step`` implementations run fully in place on
every rung: every ufunc in the update is threaded through ``out=`` into
either the moment buffers or two lazily-sized fp32 scratch arrays, so an
optimizer step performs **zero** new array allocations.  Each in-place
chain mirrors the allocating expression operation for operation (same
ufuncs, same order, same dtypes), so parameter trajectories are
bit-identical to it; the allocating expression itself runs only for
other dtypes.  The buffer arena's switch chooses only whether the
native C step (installed by ``repro.autograd.lower.attach_adam``) may
take the update.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd import arena
from repro.nn.module import Parameter


#: Persistent fp64 scratch for ``grad_norm``, one per thread: parameter
#: sizes are fixed, so one flat buffer sized to the largest gradient
#: serves every parameter every step.  Per thread because the "sim"
#: backend runs every rank as a thread, and all of them take the norm
#: after the same all-reduce.
_CLIP_SCRATCH = threading.local()

#: Native clip passes, installed by repro.autograd.lower.attach_adam:
#: ``sumsq(params)`` returns the fp64 sum of squares over the (all
#: non-None) gradients and ``scale(params, s)`` multiplies them in
#: place; either returns None to decline (non-f32 or non-contiguous
#: gradients), in which case the NumPy loops below run.  Bit-identical:
#: C replicates the widening square and NumPy's pairwise f64 summation,
#: so installing it never changes trajectories.
_CLIP_CC = None


def grad_norm(params: Iterable[Parameter]) -> float:
    """Global L2 norm of the gradients: one read of every ``p.grad``."""
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    native = _CLIP_CC if arena.is_arena_enabled() else None
    sq = native.sumsq(params) if native is not None else None
    if sq is None:
        sq = 0.0
        for p in params:
            # Same arithmetic as ``(grad.astype(f64) ** 2).sum()``: the
            # ``dtype=float64`` selects the double-precision loop, so
            # inputs are widened *before* squaring, matching the
            # astype-then-square reference bit for bit while staging
            # through a reused buffer.
            n = p.grad.size
            buf = getattr(_CLIP_SCRATCH, "buf", None)
            if buf is None or buf.size < n:
                buf = _CLIP_SCRATCH.buf = np.empty(n, dtype=np.float64)
            buf = buf[:n].reshape(p.grad.shape)
            np.multiply(p.grad, p.grad, out=buf, dtype=np.float64)
            sq += float(buf.sum())
    return float(np.sqrt(sq))


def clip_scale(norm: float, max_norm: float) -> float:
    """The factor that brings gradients of global norm ``norm`` down to
    ``max_norm``; ``1.0`` — the identity — when they already are."""
    if max_norm > 0 and norm > max_norm:
        return max_norm / (norm + 1e-12)
    return 1.0


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm (Megatron uses ``clip-grad 1.0``).
    This is the standalone form: ``grad_norm`` + ``clip_scale`` + one
    scaling pass over every gradient.  A training step skips that pass —
    it hands the scale to ``optimizer.step(grad_scale=...)``, which
    forms the same rounded products on the fly.
    """
    params = [p for p in params if p.grad is not None]
    norm = grad_norm(params)
    scale = clip_scale(norm, max_norm)
    if scale != 1.0:
        native = _CLIP_CC if arena.is_arena_enabled() else None
        if native is None or not native.scale(params, scale):
            for p in params:
                p.grad *= scale
    return norm


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Iterable[Parameter]) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr: Optional[float] = None, grad_scale: float = 1.0) -> None:
        """Apply one update from ``p.grad * grad_scale``.

        ``grad_scale`` is :func:`clip_scale`'s factor: the update is
        bit for bit the one ``p.grad *= grad_scale; step()`` makes (the
        product is formed in the gradient's dtype, rounded once), but
        ``p.grad`` itself is left as it was and no separate scaling
        pass runs.

        ``lr`` — like every hyperparameter — is taken as a Python
        ``float``.  Under NEP 50 a Python float is a *weak* scalar (it
        adopts the array's float32) while ``np.float64`` is a strong one
        (``lr * update`` is formed in float64 and rounded once more on
        the way into the parameter), and a schedule that goes through
        ``np.cos`` returns the latter: without the coercion the type of
        the scalar would choose the arithmetic, and the NumPy steps
        would part from the native one, which always receives a C
        ``float``."""
        raise NotImplementedError

    # -- fp32 scratch shared across parameters -------------------------
    _s1: Optional[np.ndarray] = None
    _s2: Optional[np.ndarray] = None

    def _scratch(self, shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Two fp32 work arrays viewed at ``shape``.

        Sized once to the largest parameter and reused for every update,
        so ``step`` allocates nothing after the first call.  Deliberately
        not serialized: checkpoints carry only the moment buffers.
        """
        n = 1
        for dim in shape:
            n *= dim
        if self._s1 is None or self._s1.size < n:
            self._s1 = np.empty(n, dtype=np.float32)
            self._s2 = np.empty(n, dtype=np.float32)
        return self._s1[:n].reshape(shape), self._s2[:n].reshape(shape)


class SGD(Optimizer):
    """Plain SGD with optional momentum (used in small tests)."""

    def __init__(self, params, lr: float = 0.1, momentum: float = 0.0) -> None:
        super().__init__(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data, dtype=np.float32) for p in self.params]

    def step(self, lr: Optional[float] = None, grad_scale: float = 1.0) -> None:
        lr = float(self.lr if lr is None else lr)
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            g = p.grad if grad_scale == 1.0 else p.grad * grad_scale
            if self.momentum > 0:
                v *= self.momentum
                v += g
                update = v
            else:
                update = g
            if update.dtype == np.float32 and p.data.dtype == np.float32:
                self._in_place(p, update, lr)
            else:
                self._allocating(p, update, lr)

    def _allocating(self, p: Parameter, update: np.ndarray, lr: float) -> None:
        p.data -= (lr * update).astype(p.data.dtype)

    def _in_place(self, p: Parameter, update: np.ndarray, lr: float) -> None:
        """``_allocating`` on fp32 without the temporary: lr is a weak
        Python scalar, so the product is already fp32 and the astype
        was a plain copy."""
        s1, _ = self._scratch(p.data.shape)
        np.multiply(lr, update, out=s1)
        p.data -= s1


class Adam(Optimizer):
    """Adam (Kingma & Ba) with fp32 moments, matching Megatron defaults.

    Args:
        lr: base learning rate (overridable per step for schedules).
        betas: exponential decay rates for the moment estimates.
        eps: numerical fuzz.
        weight_decay: decoupled (AdamW-style) weight decay.
    """

    #: Whole-model native step (one C call for every parameter),
    #: installed by repro.autograd.lower.attach_adam; replaces
    #: ``_in_place`` bit for bit.  Takes (lr, bc1, bc2,
    #: grad_scale) and returns True when it handled the full update;
    #: False declines (a non-contiguous or non-fp32 gradient) and the
    #: per-parameter loop below runs.
    _cc_multi = None

    def __init__(
        self,
        params,
        lr: float = 6e-4,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = (float(b) for b in betas)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p.data, dtype=np.float32) for p in self.params]
        self._v = [np.zeros_like(p.data, dtype=np.float32) for p in self.params]

    def step(self, lr: Optional[float] = None, grad_scale: float = 1.0) -> None:
        lr = float(self.lr if lr is None else lr)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        if (
            arena.is_arena_enabled()
            and self._cc_multi is not None
            and self._cc_multi(lr, bc1, bc2, grad_scale)
        ):
            return
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            if p.grad.dtype == np.float32 and p.data.dtype == np.float32:
                self._in_place(p, m, v, lr, bc1, bc2, grad_scale)
            else:
                self._allocating(p, m, v, lr, bc1, bc2, grad_scale)

    def _allocating(self, p, m, v, lr, bc1, bc2, grad_scale) -> None:
        """The update as one expression per moment: non-fp32 parameters."""
        g = p.grad if grad_scale == 1.0 else p.grad * grad_scale
        g = g.astype(np.float32)
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        if self.weight_decay > 0:
            update = update + self.weight_decay * p.data
        p.data -= (lr * update).astype(p.data.dtype)

    def _in_place(self, p, m, v, lr, bc1, bc2, grad_scale) -> None:
        """``_allocating`` on fp32: the same ufuncs in the same
        left-to-right order, staged through two fp32 scratch arrays (g
        is read-only, so the astype copy is dropped)."""
        g = p.grad
        s1, s2 = self._scratch(p.data.shape)
        if grad_scale != 1.0:
            # s2 is free until the second-moment root below, after the
            # last read of g.
            g = np.multiply(g, grad_scale, out=s2)
        np.multiply(m, self.beta1, out=m)
        np.multiply(1.0 - self.beta1, g, out=s1)
        np.add(m, s1, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(1.0 - self.beta2, g, out=s1)
        np.multiply(s1, g, out=s1)
        np.add(v, s1, out=v)
        np.divide(m, bc1, out=s1)
        np.divide(v, bc2, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, self.eps, out=s2)
        np.divide(s1, s2, out=s1)
        if self.weight_decay > 0:
            np.multiply(self.weight_decay, p.data, out=s2)
            np.add(s1, s2, out=s1)
        np.multiply(lr, s1, out=s1)
        p.data -= s1

    def state_size_bytes(self) -> int:
        """Optimizer state footprint (two fp32 moments per parameter)."""
        return sum(m.nbytes + v.nbytes for m, v in zip(self._m, self._v))
