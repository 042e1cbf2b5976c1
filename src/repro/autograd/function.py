"""Reverse-mode autodiff machinery.

A :class:`Function` bundles a forward computation on raw ``numpy`` arrays
with the corresponding backward (vector-Jacobian product).  Calling
``Function.apply(...)`` records a node in the tape when any tensor input
requires gradients; :meth:`repro.autograd.tensor.Tensor.backward` later
replays the tape in reverse topological order.

The design mirrors ``torch.autograd.Function`` deliberately: the paper's
kernels plug in as Functions whose backward issues the transposed sparse
products (SDD^T, DS^TD, ...) described in §5.1 of MegaBlocks.

``apply`` is the single hottest non-numeric call in a training step
(every tape node goes through it), so it avoids per-call imports and
constructs the output tensor with ``Tensor.__new__`` instead of the
coercing ``__init__`` — forward already guarantees an ``ndarray``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import arena, stats
from repro.autograd.execution import current

_TAPE_NODES = stats.TAPE_NODES

# Bound lazily on first apply() to avoid an import cycle with tensor.py.
_Tensor = None


class Context:
    """Per-call scratch space connecting ``forward`` and ``backward``."""

    __slots__ = ("saved",)

    def __init__(self) -> None:
        self.saved: Tuple[Any, ...] = ()

    def save_for_backward(self, *items: Any) -> None:
        """Stash arrays (or any values) needed by ``backward``."""
        self.saved = items


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting."""
    shape = tuple(shape)
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        axes = tuple(range(extra))
        grad = grad.sum(axis=axes, out=arena.out_buf(grad.shape[extra:], grad.dtype))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        kept = tuple(1 if i in axes else s for i, s in enumerate(grad.shape))
        grad = grad.sum(
            axis=axes, keepdims=True, out=arena.out_buf(kept, grad.dtype, (grad,))
        )
    if grad.shape == shape:
        return grad
    return grad.reshape(shape)


class Function:
    """Base class for differentiable operations.

    Subclasses implement ``forward(ctx, *args, **kwargs) -> np.ndarray`` and
    ``backward(ctx, grad) -> tuple`` where the tuple has one entry per
    *tensor* positional argument (``None`` for non-differentiable inputs).
    """

    @staticmethod
    def forward(ctx: Context, *args: Any, **kwargs: Any) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[Optional[np.ndarray]]:
        raise NotImplementedError

    @classmethod
    def apply(cls, *args: Any, **kwargs: Any):
        global _Tensor
        if _Tensor is None:
            from repro.autograd.tensor import Tensor

            _Tensor = Tensor
        Tensor = _Tensor
        ex = current()

        raw_args = []
        requires_grad = False
        for a in args:
            if isinstance(a, Tensor):
                raw_args.append(a.data)
                if a.requires_grad:
                    requires_grad = True
            else:
                raw_args.append(a)
        requires_grad = requires_grad and ex.grad

        ctx = Context()
        out_data = cls.forward(ctx, *raw_args, **kwargs)
        if type(out_data) is np.ndarray:
            out = Tensor.__new__(Tensor)
            out.data = out_data
            out.grad = None
            out.requires_grad = requires_grad
            out.name = None
            out._node = None
        else:
            # NumPy scalars (full reductions) take the coercing
            # constructor so dtype promotion matches Tensor(...) exactly.
            out = Tensor(out_data, requires_grad=requires_grad)
        if requires_grad:
            out._node = Node(cls, ctx, args)
            _TAPE_NODES.value += 1
        capture = ex.capture
        if capture is not None:
            # Record every op (grad or not): non-grad outputs can still be
            # data-dependent inputs of later recorded calls.
            capture.record_op(cls, args, kwargs, out)
        return out


class Node:
    """Tape entry: which Function produced a tensor and from what inputs.

    ``consumed`` is set by :meth:`Tensor.backward` once the node's
    gradient has been propagated (unless ``retain_graph=True``): under
    buffer recycling a second walk would read contexts whose saved
    arrays may already be back in the arena pool, so double-backward is
    rejected loudly instead of silently misbehaving.
    """

    __slots__ = ("fn", "ctx", "inputs", "consumed")

    def __init__(self, fn: type, ctx: Context, inputs: Sequence[Any]) -> None:
        self.fn = fn
        self.ctx = ctx
        self.inputs = inputs
        self.consumed = False

    def tensor_inputs(self):
        global _Tensor
        if _Tensor is None:  # pragma: no cover - apply() always runs first
            from repro.autograd.tensor import Tensor

            _Tensor = Tensor
        return [a for a in self.inputs if isinstance(a, _Tensor)]
