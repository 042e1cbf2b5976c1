"""Native fused Adam step and gradient norm, bound to one optimizer.

The optimizer update is the one hot loop of a training step that lives
outside the captured graph, so it rides on the prelude library like the
graph kernels do (the ``adam`` and ``clip`` entries of
:mod:`repro.autograd.lower.kernels.optim`): ``repro_adam_f32`` is a
per-element fusion of the nine-ufunc in-place mirror in
:class:`repro.training.optim.Adam`, and ``repro_adam_multi_f32`` — the
one Adam entry point bound from Python — calls it over a prebuilt
pointer table so the whole-model update costs one ctypes crossing per
step instead of one per parameter.  Bit-identical: every
intermediate rounds to float32 exactly where the NumPy sequence does —
the clip scale included, which the loop applies to each gradient
element as it reads it (``grad_scale``), so a clipped training step is
two sweeps over the gradients (``repro_clip_sumsq_f32``, Adam), not
three.
"""

from __future__ import annotations

import ctypes
from operator import attrgetter, is_

import numpy as np

__all__ = ["attach_adam"]

_DATA, _GRAD = attrgetter("data"), attrgetter("grad")


def attach_adam(opt) -> bool:
    """Bind the native step and gradient norm to the :class:`Adam`
    ``opt`` (``opt.native``); no other optimizer is affected.

    Returns ``False`` (leaving the optimizer untouched) when the
    toolchain is unavailable or the prelude fails to compile; the
    NumPy in-place update keeps running in that case.
    """
    from repro.autograd.lower import runtime, toolchain

    lib = runtime.load_prelude() if toolchain.cc_available() else None
    if lib is None:
        return False
    from repro.observability.metrics import registry

    # What one step must move: p, m and v read and written, g read —
    # seven fp32 words per element.  Against the measured optimizer
    # phase this is the loop's achieved bytes/s (``repro.cli`` prints it).
    registry().gauge("optim_bytes_per_step").set(
        28 * sum(p.data.size for p in opt.params)
    )
    opt.native = _BoundAdam(opt, lib)
    return True


class _BoundAdam:
    """One pointer table over ``opt``'s parameters that have a gradient
    (data, grad, ``m``, ``v``), shared by the Adam step and the sum of
    squares.  It is rebuilt only when one of those arrays changes
    identity (steady-state leaf grads are accumulated in place, so
    rebuilds are rare)."""

    __slots__ = ("opt", "adam", "sumsq_fn", "held", "argv", "keep")

    def __init__(self, opt, lib) -> None:
        self.opt = opt
        self.adam = lib.repro_adam_multi_f32
        self.sumsq_fn = lib.repro_clip_sumsq_f32
        self.held = self.argv = self.keep = None

    def _current(self) -> bool:
        """The parameter list, each parameter's ``data`` and ``grad`` and
        each ``m`` and ``v`` are the arrays the table was built over —
        compared in C (``map(is_)``), with no list built per step."""
        held, opt = self.held, self.opt
        if held is None:
            return False
        params, data, grads, ms, vs = held
        return (
            len(opt.params) == len(params) == len(opt._m) == len(opt._v)
            and all(map(is_, opt.params, params))
            and all(map(is_, map(_DATA, params), data))
            and all(map(is_, map(_GRAD, params), grads))
            and all(map(is_, opt._m, ms))
            and all(map(is_, opt._v, vs))
        )

    def _table(self):
        """The table's C arguments ``(ps, ms, vs, gs, sizes, count)``,
        or ``None`` to decline (a non-f32 or non-contiguous array)."""
        if self._current():
            return self.argv
        opt = self.opt
        params = list(opt.params)
        self.held = held = (
            params, [p.data for p in params], [p.grad for p in params],
            list(opt._m), list(opt._v),
        )
        # In the C call's order: data, m, v, grad.
        rows = [row for row in zip(held[1], held[3], held[4], held[2]) if row[3] is not None]
        if not all(a.dtype == np.float32 and a.flags.c_contiguous for row in rows for a in row):
            self.held = None
            return None
        n = len(rows)
        tables = [(ctypes.c_void_p * n)(*(row[i].ctypes.data for row in rows)) for i in range(4)]
        sizes = np.array([row[0].size for row in rows], np.int64)
        self.keep = (tables, sizes)
        self.argv = (*map(ctypes.addressof, tables), sizes.ctypes.data, n)
        return self.argv

    def step(self, lr, bc1, bc2, grad_scale) -> bool:
        """The whole update in one C call; ``False`` declines."""
        argv = self._table()
        if argv is None:
            return False
        opt = self.opt
        # ``weight_decay > 0`` gates the decay term in the NumPy path;
        # pass 0.0 for any non-positive setting so C agrees.
        wd = opt.weight_decay if opt.weight_decay > 0 else 0.0
        self.adam(
            *argv, float(lr), float(bc1), float(bc2),
            float(opt.beta1), float(opt.beta2), float(opt.eps), float(wd),
            float(grad_scale),
        )
        return True

    def sumsq(self):
        """The gradients' fp64 sum of squares in one C call (NumPy's
        pairwise order, parameter by parameter); ``None`` declines."""
        argv = self._table()
        return None if argv is None else self.sumsq_fn(*argv[3:])
