"""Native fused Adam step.

The optimizer update is the one hot loop of a training step that lives
outside the captured graph, so it rides on the prelude library like the
graph kernels do (the ``adam`` and ``clip`` entries of
:mod:`repro.autograd.lower.kernels.optim`): ``repro_adam_f32`` is a
per-element fusion of the nine-ufunc in-place mirror in
:class:`repro.training.optim.Adam`, and ``repro_adam_multi_f32`` — the
one entry point bound from Python — calls it over prebuilt pointer
tables so the whole-model update costs one ctypes crossing per step
instead of one per parameter.  Bit-identical: every
intermediate rounds to float32 exactly where the NumPy sequence does —
the clip scale included, which the loop applies to each gradient
element as it reads it (``grad_scale``), so a clipped training step is
two sweeps over the gradients (sum of squares, Adam), not three.
"""

from __future__ import annotations

import ctypes
from types import SimpleNamespace

import numpy as np

__all__ = ["attach_adam"]


def attach_adam(opt) -> bool:
    """Install the native step on an :class:`Adam` instance.

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
    mfn = lib.repro_adam_multi_f32
    f32 = np.float32

    # Pointer tables for the whole-model call, rebuilt only when some
    # parameter or gradient buffer changes identity (steady-state leaf
    # grads are accumulated in place, so rebuilds are rare).
    state = {"key": None, "argv": None}

    def _cc_multi(lr, bc1, bc2, grad_scale):
        params = opt.params
        key = state["key"]
        n = len(params)
        fresh = key is None or len(key) != n
        if not fresh:
            for k in range(n):
                p = params[k]
                ent = key[k]
                if p.data is not ent[0] or p.grad is not ent[1]:
                    fresh = True
                    break
        if fresh:
            mlist, vlist = opt._m, opt._v
            ps = (ctypes.c_void_p * n)()
            ms = (ctypes.c_void_p * n)()
            vs = (ctypes.c_void_p * n)()
            gs = (ctypes.c_void_p * n)()
            sizes = np.empty(n, np.int64)
            newkey = []
            used = 0
            for k in range(n):
                p = params[k]
                d, g = p.data, p.grad
                newkey.append((d, g))
                if g is None:
                    continue
                m, v = mlist[k], vlist[k]
                if not (
                    g.dtype == f32
                    and d.dtype == f32
                    and g.flags.c_contiguous
                    and d.flags.c_contiguous
                    and m.flags.c_contiguous
                    and v.flags.c_contiguous
                ):
                    state["key"] = None
                    return False
                ps[used] = d.ctypes.data
                ms[used] = m.ctypes.data
                vs[used] = v.ctypes.data
                gs[used] = g.ctypes.data
                sizes[used] = d.size
                used += 1
            state["key"] = newkey
            state["argv"] = (ps, ms, vs, gs, sizes, used)
        ps, ms, vs, gs, sizes, used = state["argv"]
        # ``weight_decay > 0`` gates the decay term in the NumPy path;
        # pass 0.0 for any non-positive setting so C agrees.
        wd = opt.weight_decay if opt.weight_decay > 0 else 0.0
        mfn(
            ctypes.addressof(ps), ctypes.addressof(ms),
            ctypes.addressof(vs), ctypes.addressof(gs),
            sizes.ctypes.data, used,
            float(lr), float(bc1), float(bc2),
            float(opt.beta1), float(opt.beta2), float(opt.eps), float(wd),
            float(grad_scale),
        )
        return True

    # Native global grad-norm clip: one C call for the fp64 sum of
    # squares (NumPy pairwise order) and — standalone clip_grad_norm
    # only — one for the in-place scale, over one pointer table.
    csq = lib.repro_clip_sumsq_f32
    csc = lib.repro_scale_multi_f32
    clip_state = {"key": None, "argv": None}

    def _grad_table(params):
        key = clip_state["key"]
        n = len(params)
        fresh = key is None or len(key) != n
        if not fresh:
            for k in range(n):
                if params[k].grad is not key[k]:
                    fresh = True
                    break
        if fresh:
            gs = (ctypes.c_void_p * n)()
            sizes = np.empty(n, np.int64)
            newkey = []
            for k in range(n):
                g = params[k].grad
                if not (g.dtype == f32 and g.flags.c_contiguous):
                    clip_state["key"] = None
                    return None
                gs[k] = g.ctypes.data
                sizes[k] = g.size
                newkey.append(g)
            clip_state["key"] = newkey
            # (the call's three arguments, then what keeps them alive)
            clip_state["argv"] = (
                ctypes.addressof(gs), sizes.ctypes.data, n, gs, sizes
            )
        return clip_state["argv"]

    def _sumsq(params):
        argv = _grad_table(params)
        return None if argv is None else csq(*argv[:3])

    def _scale(params, scale):
        argv = _grad_table(params)
        if argv is None:
            return None
        csc(*argv[:3], float(scale))
        return True

    opt._cc_multi = _cc_multi

    from repro.training import optim as _optim

    _optim._CLIP_CC = SimpleNamespace(sumsq=_sumsq, scale=_scale)
    return True
