"""View ops as Python closures: no C, but off the interpreter — the
record's argument patching, keyword handling and output coercion are
resolved once at build time.

Each holds the view it made against the array it viewed: the same
array (an arena buffer the replay's script serves again, a parameter's
``data``) gives the same view object, so the units downstream — and a
parameter whose gradient arrives through a reshape — see one array on
every replay, not a new view per call (``docs/codegen.md``, "Calling
convention").  Identity implies layout, so the held view is the view a
fresh call would make.  A reshape that must copy is not a view: it
acquires its copy every call, as the op does."""

from __future__ import annotations

import numpy as np

from repro.autograd import arena
from repro.autograd import ops_basic as _B
from repro.autograd.lower.kernels.base import (
    Capture, Const, Contract, Kernel, f32,
)


def _reshaped(held, at, a, shape):
    """``(arena.reshaped(a, shape), (a.shape,))`` — the result and what
    the op saves — held (``held``: the array and the target shape,
    ``at[0]``: the pair) when the reshape is a view."""
    if a is held[0] and shape == held[1]:
        return at[0]
    try:
        pair = a.reshape(shape, copy=False), (a.shape,)
    except ValueError:
        held[0] = None
        return arena.reshaped(a, shape), (a.shape,)
    held[0], held[1], at[0] = a, shape, pair
    return pair


def _reshape_forward(b):
    shape = tuple(b.rec.specs[1][1])
    held, at, _ = b.holds(2)

    def run(a, _shape):
        view, saved = _reshaped(held, at, a, shape)
        return saved, view

    return run


def _reshape_backward(b):
    held, at, _ = b.holds(2)

    def run(grad, shape):
        return (_reshaped(held, at, grad, shape)[0],)

    return run


def _transpose_forward(b):
    axes = b.const(1, "axes", None)
    if axes is None:
        axes = tuple(reversed(range(len(b.shape(0)))))
    axes = tuple(axes)
    saved = (tuple(int(v) for v in np.argsort(axes)),)
    held, views, _ = b.holds(1)

    def run(a, *_axes):
        if a is not held[0]:
            held[0], views[0] = a, np.transpose(a, axes)
        return saved, views[0]

    return run


KERNELS = (
    Kernel(
        "reshape", _B._Reshape,
        contract=Contract(Const(1)),
        forward=_reshape_forward,
        bwd_guard=Contract(),
        backward=_reshape_backward,
        fuzz=lambda rng: (f32(rng, 4, 6), (3, 8)),
    ),
    Kernel(
        "transpose", _B._Transpose,
        contract=Contract(
            Const(1, optional=True),
            Capture("an array operand", lambda rec, v: v[0] is not None),
        ),
        forward=_transpose_forward,
        fuzz=lambda rng: (f32(rng, 2, 3, 4), (1, 0, 2)),
    ),
)
