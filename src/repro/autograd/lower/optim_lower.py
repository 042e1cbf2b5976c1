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
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.autograd.lower.kernels.base import addr

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
    squares: a :class:`~repro.autograd.lower.runtime.Binding` holding
    the parameter list, each parameter's ``data`` and ``grad`` and each
    ``m`` and ``v``, whose ``args`` are the table's C arguments.  It is
    rebuilt only when one of those arrays changes identity — rare:
    steady-state leaf gradients are the arena's same buffers, accumulated
    in place."""

    __slots__ = ("opt", "adam", "sumsq_fn", "table", "keep")

    def __init__(self, opt, lib) -> None:
        from repro.autograd.lower.runtime import Binding

        self.opt = opt
        self.adam = lib.repro_adam_multi_f32
        self.sumsq_fn = lib.repro_clip_sumsq_f32
        self.table = Binding()
        self.keep = None

    def _live(self):
        """The objects the table is built over, in held order — compared
        in C (``map(is_)``), with no list built per step."""
        opt = self.opt
        params = opt.params
        return chain(params, map(_DATA, params), map(_GRAD, params), opt._m, opt._v)

    def _table(self):
        """The table's C arguments ``(ps, ms, vs, gs, sizes, count)``,
        or ``None`` to decline (a non-f32 or non-contiguous array)."""
        opt, table = self.opt, self.table
        n = len(opt.params)
        if (
            5 * n == len(table.held) and len(opt._m) == len(opt._v) == n
            and table.current(self._live())
        ):
            return table.args
        held = list(self._live())
        data, grads, ms, vs = (held[i * n:(i + 1) * n] for i in range(1, 5))
        # In the C call's order: data, m, v, grad.
        rows = [row for row in zip(data, ms, vs, grads) if row[3] is not None]
        if not all(a.dtype == np.float32 and a.flags.c_contiguous for row in rows for a in row):
            table.held = ()
            return None
        k = len(rows)
        tables = [(ctypes.c_void_p * k)(*(addr(row[i]) for row in rows)) for i in range(4)]
        sizes = np.array([row[0].size for row in rows], np.int64)
        self.keep = (tables, sizes)
        table.held = held
        table.args = (*map(ctypes.addressof, tables), addr(sizes), k)
        return table.args

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
