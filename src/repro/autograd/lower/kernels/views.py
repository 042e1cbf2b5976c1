"""View ops as Python closures: no C, but off the interpreter — the
record's argument patching, keyword handling and output coercion are
resolved once at build time."""

from __future__ import annotations

import numpy as np

from repro.autograd import arena
from repro.autograd import ops_basic as _B
from repro.autograd.lower.kernels.base import Capture, Const, Contract, Kernel, f32


def _reshape_forward(b):
    shape = tuple(b.rec.specs[1][1])

    def run(a, _shape):
        return (a.shape,), arena.reshaped(a, shape)

    return run


def _transpose_forward(b):
    axes = b.const(1, "axes", None)
    if axes is None:
        axes = tuple(reversed(range(len(b.shape(0)))))
    axes = tuple(axes)
    inverse = tuple(int(v) for v in np.argsort(axes))

    def run(a, *_axes):
        return (inverse,), np.transpose(a, axes)

    return run


KERNELS = (
    Kernel(
        "reshape", _B._Reshape,
        contract=Contract(Const(1)),
        forward=_reshape_forward,
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
