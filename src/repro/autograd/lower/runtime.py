"""Execution layer for lowered step graphs.

:func:`attach` analyzes a sealed :class:`StepGraph`, renders and
compiles the translation unit, and installs a :class:`LoweredPlan` on
the graph.  The plan owns:

- a flat list of *items* — closures that replace the replay
  interpreter's record loop.  Fused segments and specialized kernels
  call into the compiled library through persistent ctypes argument
  buffers; host runs execute the original pre-compiled plan tuples.
- the backward swaps: selected ``_bwd_plan`` entries are replaced in
  place with closures of identical ``(ctx, grad) -> tuple`` semantics
  (``detach`` restores the originals).

Every native call sits behind a guard that compares the live operands
against the layout descriptors baked at capture (identity-cached, so
steady-state replays pay one ``is`` check per operand).  A guard miss
runs the original NumPy records for just that segment and bumps
``lower_segment_fallbacks`` — lowering never changes semantics, only
dispatch.
"""

from __future__ import annotations

import ctypes
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.autograd import arena
from repro.autograd import ops_basic as _B
from repro.autograd import ops_fused as _F
from repro.autograd import ops_nn as _N
from repro.autograd.function import Context
from repro.autograd.graph import _CONST, _INPUT, _LEAF, _REC
from repro.autograd.lower import csrc, toolchain
from repro.autograd.lower.segmenter import (
    Analysis,
    FusedSeg,
    KernUnit,
    LoweringError,
    PyUnit,
    analyze,
)

__all__ = ["LoweredPlan", "attach"]

_ndarray = np.ndarray
_F4 = np.dtype(np.float32)
_I64 = np.dtype(np.int64)
_c_void_p = ctypes.c_void_p
_c_i64 = ctypes.c_longlong
_c_double = ctypes.c_double

_PTR = _c_void_p
_KERNEL_SIGS = {
    "repro_zero_scat_add_f32": [_PTR, _PTR, _PTR, _c_i64, _c_i64, _c_i64, _PTR],
    "repro_gather_rows_f32": [_PTR, _PTR, _PTR, _c_i64, _c_i64],
    "repro_embed_rows_f32": [_PTR, _PTR, _PTR, _c_i64, _c_i64],
    "repro_gather_assign_f32": [_PTR, _PTR, _PTR, _c_i64, _c_i64],
    "repro_getitem_flat_f32": [_PTR, _PTR, _PTR, _PTR, _c_i64, _c_i64, _c_i64, _PTR],
    "repro_mul_bwd_f32": [_PTR, _PTR, _PTR, _PTR, _PTR, _c_i64],
    "repro_ln_fwd_f32": [_PTR] * 6 + [_c_i64, _c_i64, _c_double, _PTR],
    "repro_ln_bwd_f32": [_PTR] * 7 + [_c_i64, _c_i64, _PTR, _PTR],
    "repro_adam_f32": [_PTR] * 4 + [_c_i64] + [_c_double] * 7,
    "repro_adam_multi_f32": [_PTR] * 5 + [_c_i64] + [_c_double] * 7,
    "repro_clip_sumsq_f32": [_PTR, _PTR, _c_i64],
    "repro_scale_multi_f32": [_PTR, _PTR, _c_i64, _c_double],
    "repro_gelu_bwd_f32": [_PTR] * 4 + [_c_i64] + [_c_double] * 2,
    "repro_gelu_bwd_colsum_f32": [_PTR] * 6 + [_c_i64] * 2 + [_c_double] * 2,
    "repro_sbgelu_fwd1_f32": [_PTR] * 6 + [_c_i64] * 2 + [_c_double] * 2,
    "repro_gelu_posttanh_f32": [_PTR] * 4 + [_c_i64] * 2,
    "repro_attn_fwd1_f32": [_PTR] * 3 + [_c_i64] * 2 + [_c_double],
    "repro_attn_fwd2_f32": [_PTR, _c_i64, _c_i64],
    "repro_attn_bwd_f32": [_PTR] * 4 + [_c_i64] * 2 + [_c_double],
    "repro_sum_lead_f32": [_PTR, _PTR, _c_i64, _c_i64],
    "repro_set_blas": [_PTR],
    "repro_linbias_f32": [_PTR] * 4 + [_c_i64] * 6,
    "repro_mm_f32": [_PTR] * 3 + [_c_i64] * 6,
    "repro_softmax_fwd1_f32": [_PTR, _PTR, _c_i64, _c_i64],
    "repro_softmax_bwd_f32": [_PTR] * 3 + [_c_i64] * 2,
    "repro_topk1_i64": [_PTR, _PTR, _c_i64, _c_i64],
    "repro_lbfrac_f32": [_PTR, _PTR, _c_i64, _c_i64, _PTR],
    "repro_allfinite_f32": [_PTR, _c_i64],
    "repro_grouped_sdd_f32": (
        [_PTR, _c_i64, _c_i64, _PTR, _c_i64, _c_i64, _PTR, _PTR, _PTR]
        + [_c_i64] * 3 + [_PTR]
    ),
    "repro_grouped_dsd_f32": (
        [_PTR, _PTR, _c_i64, _c_i64, _PTR, _c_i64, _PTR, _PTR]
        + [_c_i64] * 3 + [_PTR]
    ),
    "repro_grouped_dds_f32": (
        [_PTR, _c_i64, _c_i64, _PTR, _PTR, _c_i64, _c_i64, _PTR, _PTR]
        + [_c_i64] * 3 + [_PTR]
    ),
    "repro_segsum_tr_f32": [_PTR] * 5 + [_c_i64] * 2,
}


def bind(lib) -> None:
    """Set argtypes/restype on the prelude kernels (idempotent), and
    inject the address of NumPy's own ``cblas_sgemm`` into the library
    so the GEMM-backed kernels reduce in exactly NumPy's order.  When
    the BLAS probe fails the pointer stays NULL — the segmenter never
    emits GEMM-backed units in that case, so nothing dereferences it."""
    for name, argtypes in _KERNEL_SIGS.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    lib.repro_clip_sumsq_f32.restype = ctypes.c_double
    lib.repro_allfinite_f32.restype = _c_i64
    from repro.autograd.lower import blas

    addr = blas.sgemm_addr()
    if addr:
        lib.repro_set_blas(addr)


def _resolver(graph, spec) -> Callable:
    tag = spec[0]
    if tag == _REC:
        i = spec[1]
        return lambda values, inputs: values[i][1]
    if tag == _LEAF:
        t = spec[1]
        return lambda values, inputs: t.data
    if tag == _CONST:
        c = spec[1]
        return lambda values, inputs: c
    if tag == _INPUT:
        name = spec[1]
        return lambda values, inputs: inputs[name]
    resolve = graph._resolve
    return lambda values, inputs: resolve(spec, values, inputs)


def _make_py_item(graph, indices) -> Callable:
    """Run a subset of records through the replay interpreter — the
    body is the record loop of ``StepGraph._forward`` verbatim."""
    from repro.autograd.graph import GraphInvalidated, _host_equal
    from repro.autograd.tensor import _coerce_data

    plan = graph._plan
    resolve = graph._resolve
    ndarray = _ndarray
    idxs = tuple(indices)

    def run(values, inputs):
        for i in idxs:
            is_op, fn, kwargs, static, patches, rec = plan[i]
            if patches:
                args = static.copy()
                for pos, tag, payload, s in patches:
                    if tag == _REC:
                        args[pos] = values[payload][1]
                    elif tag == _LEAF:
                        args[pos] = payload.data
                    elif tag == _INPUT:
                        args[pos] = inputs[payload]
                    else:
                        args[pos] = resolve(s, values, inputs)
            else:
                args = static
            if is_op:
                ctx = Context()
                if kwargs is None:
                    out = fn(ctx, *args)
                else:
                    out = fn(ctx, *args, **kwargs)
                if type(out) is not ndarray:
                    out = _coerce_data(out)
                values[i] = (ctx, out)
            else:
                res = fn(*args)
                if rec.guard and not _host_equal(res, rec.expected):
                    raise GraphInvalidated(
                        f"guard {fn.__name__} diverged from capture: "
                        f"{rec.expected!r} -> {res!r}"
                    )
                values[i] = (None, res)

    return run


def _check(a, desc) -> bool:
    return (
        type(a) is _ndarray
        and a.dtype.str == desc[0]
        and a.shape == desc[1]
        and a.strides == desc[2]
    )


def _tr_segments(topo, nonempty, starts):
    """Flat int64 ``(transpose_block_offsets, nonempty_rows, extended
    starts)`` triple for :c:func:`repro_segsum_tr_f32`, memoized in the
    topology's memo like the dispatch plan.  ``starts`` gains one
    trailing entry — the total block count — so segment ``t`` always
    spans ``[starts[t], starts[t+1])``."""
    cached = topo.memo.get("lower_tr_segments")
    if cached is None:
        tbo = np.ascontiguousarray(topo.transpose_block_offsets, _I64)
        ne = np.ascontiguousarray(nonempty, _I64)
        st = np.empty(len(starts) + 1, _I64)
        st[:-1] = starts
        st[-1] = topo.nnz_blocks
        cached = topo.memo["lower_tr_segments"] = (tbo, ne, st)
    return cached


class LoweredPlan:
    """A compiled execution schedule swapped into ``StepGraph.replay``."""

    def __init__(self, graph, lib, analysis: Analysis):
        bind(lib)
        self._graph = graph
        self._lib = lib
        self._nrec = len(graph.records)
        self.records_total = analysis.total
        self.records_lowered = len(analysis.lowered)
        self.records_native = len(analysis.native)
        self.num_segments = sum(
            1 for u in analysis.units if isinstance(u, FusedSeg)
        )
        from repro.observability.metrics import registry

        self._fallback_counter = registry().counter("lower_segment_fallbacks")

        # Shared scratch: int64 for the scatter kernels, float32 rows for
        # LayerNorm.  Runners grow them on demand; replays are
        # single-threaded so one block serves every segment.
        self._iscr = np.empty(256, _I64)
        max_h = 1
        for u in analysis.units:
            if isinstance(u, KernUnit) and u.kind == "ln":
                max_h = max(max_h, int(u.meta["H"]))
        for kind, meta in analysis.bwd.values():
            if kind == "ln":
                max_h = max(max_h, int(meta["H"]))
        self._f_sq = np.empty(max_h, _F4)
        self._f_pr = np.empty(max_h, _F4)

        self._items: List[Callable] = []
        for unit in analysis.units:
            if isinstance(unit, PyUnit):
                self._items.append(_make_py_item(graph, unit.indices))
            elif isinstance(unit, FusedSeg):
                self._items.append(self._make_fused_item(unit))
            else:
                self._items.append(self._make_kern_item(unit))

        self._swaps: List[tuple] = []
        self._install_backward(analysis)

    # -- forward ---------------------------------------------------------
    def run_forward(self, inputs) -> list:
        values: List[Optional[tuple]] = [None] * self._nrec
        for item in self._items:
            item(values, inputs)
        return values

    def detach(self) -> None:
        bwd_plan = self._graph._bwd_plan
        for pos, entry in self._swaps:
            bwd_plan[pos] = entry
        self._swaps = []

    @property
    def coverage(self) -> float:
        return self.records_lowered / max(1, self.records_total)

    def _iscratch(self, need: int) -> np.ndarray:
        if self._iscr.size < need:
            self._iscr = np.empty(max(need, 2 * self._iscr.size), _I64)
        return self._iscr

    # -- fused elementwise segments --------------------------------------
    def _make_fused_item(self, seg: FusedSeg) -> Callable:
        graph = self._graph
        cfn = getattr(self._lib, seg.name)
        cfn.argtypes = [ctypes.POINTER(_c_void_p)]
        cfn.restype = None

        ne = len(seg.ext)
        stores = [s for s in seg.steps if s.materialize]
        extra = 1 if (seg.flat or seg.flat2) else 0
        argv = (_c_void_p * (ne + len(stores) + extra))()
        ext_res = [_resolver(graph, spec) for spec, _desc, _st in seg.ext]
        ext_desc = [desc for _spec, desc, _st in seg.ext]
        cache: List[Any] = [None] * ne
        ocache: List[Any] = [None] * len(stores)
        shape = seg.shape
        dtype = np.dtype(seg.dtype)
        fallback = _make_py_item(graph, seg.indices)
        fb_counter = self._fallback_counter

        if seg.flat:
            return self._make_flat_item(
                seg, cfn, argv, ext_res, cache, ocache, stores, fallback,
                fb_counter,
            )
        if seg.flat2:
            return self._make_flat2_item(
                seg, cfn, argv, ext_res, cache, ocache, stores, fallback,
                fb_counter,
            )

        # Per-step Context recipes, precomputed from the record descs.
        recipes = []
        store_slot = {s.index: t for t, s in enumerate(stores)}
        for s in seg.steps:
            rec = graph.records[s.index]
            if s.ctx_kind == "arrays":
                recipes.append((s.index, "arrays", (s.lhs, s.rhs)))
            elif s.ctx_kind == "dropres":
                y_d, r_d = rec.descs[1][0], rec.descs[1][1]
                recipes.append((s.index, "const", (None, y_d[1], r_d[1])))
            else:
                a_d, b_d = rec.descs[1][0], rec.descs[1][1]
                # A None desc is a NumPy scalar operand; its saved
                # ``.shape`` is ``()``.
                sa = a_d[1] if a_d is not None else ()
                sb = b_d[1] if b_d is not None else ()
                recipes.append((s.index, "const", (sa, sb)))

        def run(values, inputs):
            for k in range(ne):
                a = ext_res[k](values, inputs)
                if a is not cache[k]:
                    if not _check(a, ext_desc[k]):
                        fb_counter.inc()
                        fallback(values, inputs)
                        return
                    argv[k] = a.ctypes.data
                    cache[k] = a
            bufs = []
            for t in range(len(stores)):
                buf = arena.empty(shape, dtype)
                if buf is not ocache[t]:
                    argv[ne + t] = buf.ctypes.data
                    ocache[t] = buf
                bufs.append(buf)
            cfn(argv)

            def operand(ref):
                kind, payload = ref
                if kind == "ext":
                    return cache[payload]
                if kind == "tmp":
                    return bufs[store_slot[payload]]
                return payload  # literal scalar

            for ridx, ckind, payload in recipes:
                ctx = Context()
                if ckind == "const":
                    ctx.saved = payload
                else:
                    ctx.saved = (operand(payload[0]), operand(payload[1]))
                t = store_slot.get(ridx)
                values[ridx] = (ctx, bufs[t] if t is not None else None)

        return run

    def _make_flat_item(
        self, seg, cfn, argv, ext_res, cache, ocache, stores, fallback,
        fb_counter,
    ) -> Callable:
        """Runner for a flat segment: the baked shape is only a hint.

        The guard pins dtype, C-contiguity and dimensionality per
        operand (identity-cached) and requires every operand to share
        one live shape per call; the element count feeds the C loop
        through a persistent ``i64`` slot.  This is what keeps the
        routing-dependent expert-segment chains native when the padded
        row count drifts between micro batches."""
        graph = self._graph
        ne = len(seg.ext)
        nd = len(seg.shape)
        dstr = seg.dtype
        dtype = np.dtype(dstr)
        nbuf = np.empty(1, _I64)
        argv[ne + len(stores)] = nbuf.ctypes.data
        nbuf[0] = -1

        # Context recipes: shapes come from the *live* shape per call.
        # ("arrays", lhs_ref, rhs_ref) | ("shapes2", lhs_is_arr, rhs_is_arr)
        # | ("dropres",).
        recipes = []
        store_slot = {s.index: t for t, s in enumerate(stores)}
        for s in seg.steps:
            if s.ctx_kind == "arrays":
                recipes.append((s.index, "arrays", s.lhs, s.rhs))
            elif s.ctx_kind == "dropres":
                recipes.append((s.index, "dropres", None, None))
            else:
                recipes.append(
                    (s.index, "shapes2", s.lhs[0] != "lit", s.rhs[0] != "lit")
                )

        def run(values, inputs):
            dirty = False
            for k in range(ne):
                a = ext_res[k](values, inputs)
                if a is not cache[k]:
                    if not (
                        type(a) is _ndarray
                        and a.dtype.str == dstr
                        and a.ndim == nd
                        and a.flags.c_contiguous
                    ):
                        for j in range(ne):
                            cache[j] = None
                        fb_counter.inc()
                        fallback(values, inputs)
                        return
                    argv[k] = a.ctypes.data
                    cache[k] = a
                    dirty = True
            live = cache[0].shape
            if dirty:
                for k in range(1, ne):
                    if cache[k].shape != live:
                        for j in range(ne):
                            cache[j] = None
                        fb_counter.inc()
                        fallback(values, inputs)
                        return
                nbuf[0] = cache[0].size
            bufs = []
            for t in range(len(stores)):
                buf = arena.empty(live, dtype)
                if buf is not ocache[t]:
                    argv[ne + t] = buf.ctypes.data
                    ocache[t] = buf
                bufs.append(buf)
            cfn(argv)

            def operand(ref):
                kind, payload = ref
                if kind == "ext":
                    return cache[payload]
                if kind == "tmp":
                    return bufs[store_slot[payload]]
                return payload  # literal scalar

            for ridx, ckind, pa, pb in recipes:
                ctx = Context()
                if ckind == "shapes2":
                    ctx.saved = (live if pa else (), live if pb else ())
                elif ckind == "dropres":
                    ctx.saved = (None, live, live)
                else:
                    ctx.saved = (operand(pa), operand(pb))
                t = store_slot.get(ridx)
                values[ridx] = (ctx, bufs[t] if t is not None else None)

        return run

    def _make_flat2_item(
        self, seg, cfn, argv, ext_res, cache, ocache, stores, fallback,
        fb_counter,
    ) -> Callable:
        """Runner for a rows-by-H segment with ``(..., 1)`` columns.

        Full operands must share one live leading shape with a baked
        last-axis width; row operands must be that leading shape with a
        trailing 1.  The row count feeds the C nest through a persistent
        ``i64`` slot, so the routing-weight scale chains stay native
        when the padded expert row count drifts."""
        graph = self._graph
        ne = len(seg.ext)
        nd = len(seg.shape)
        H = int(seg.shape[-1])
        kinds = seg.ekinds
        full_i = kinds.index("full")
        dstr = seg.dtype
        dtype = np.dtype(dstr)
        nbuf = np.empty(1, _I64)
        argv[ne + len(stores)] = nbuf.ctypes.data
        nbuf[0] = -1

        # Context recipes; saved shapes come from the live shape per
        # call, with ext refs shaped by their full/row kind.
        recipes = []
        store_slot = {s.index: t for t, s in enumerate(stores)}
        for s in seg.steps:
            if s.ctx_kind == "arrays":
                recipes.append((s.index, "arrays", s.lhs, s.rhs))
            elif s.ctx_kind == "dropres":
                recipes.append((s.index, "dropres", None, None))
            else:
                recipes.append((s.index, "shapes2", s.lhs, s.rhs))

        def run(values, inputs):
            dirty = False
            for k in range(ne):
                a = ext_res[k](values, inputs)
                if a is not cache[k]:
                    last = H if kinds[k] == "full" else 1
                    if not (
                        type(a) is _ndarray
                        and a.dtype.str == dstr
                        and a.ndim == nd
                        and a.shape[-1] == last
                        and a.flags.c_contiguous
                    ):
                        for j in range(ne):
                            cache[j] = None
                        fb_counter.inc()
                        fallback(values, inputs)
                        return
                    argv[k] = a.ctypes.data
                    cache[k] = a
                    dirty = True
            live = cache[full_i].shape
            if dirty:
                lead = live[:-1]
                for k in range(ne):
                    want = live if kinds[k] == "full" else lead + (1,)
                    if cache[k].shape != want:
                        for j in range(ne):
                            cache[j] = None
                        fb_counter.inc()
                        fallback(values, inputs)
                        return
                nbuf[0] = cache[full_i].size // H
            bufs = []
            for t in range(len(stores)):
                buf = arena.empty(live, dtype)
                if buf is not ocache[t]:
                    argv[ne + t] = buf.ctypes.data
                    ocache[t] = buf
                bufs.append(buf)
            cfn(argv)

            def operand(ref):
                kind, payload = ref
                if kind == "ext":
                    return cache[payload]
                if kind == "tmp":
                    return bufs[store_slot[payload]]
                return payload  # literal scalar

            def ref_shape(ref):
                kind, payload = ref
                if kind == "lit":
                    return ()
                if kind == "ext" and kinds[payload] == "row":
                    return live[:-1] + (1,)
                return live

            for ridx, ckind, pa, pb in recipes:
                ctx = Context()
                if ckind == "shapes2":
                    ctx.saved = (ref_shape(pa), ref_shape(pb))
                elif ckind == "dropres":
                    ctx.saved = (None, live, live)
                else:
                    ctx.saved = (operand(pa), operand(pb))
                t = store_slot.get(ridx)
                values[ridx] = (ctx, bufs[t] if t is not None else None)

        return run

    # -- specialized kernels / closures ----------------------------------
    def _make_kern_item(self, unit: KernUnit) -> Callable:
        graph = self._graph
        rec = graph.records[unit.index]
        i = unit.index
        fallback = _make_py_item(graph, (i,))
        fb_counter = self._fallback_counter
        lib = self._lib

        if unit.kind == "ln":
            shape = unit.meta["shape"]
            H = int(unit.meta["H"])
            R = 1
            for d in shape[:-1]:
                R *= int(d)
            eps = float(unit.meta["eps"])
            inv_shape = shape[:-1] + (1,)
            res_x = _resolver(graph, rec.specs[0])
            res_w = _resolver(graph, rec.specs[1])
            res_b = _resolver(graph, rec.specs[2])
            x_d, w_d, b_d = rec.descs[1][0], rec.descs[1][1], rec.descs[1][2]
            cfn = lib.repro_ln_fwd_f32
            sq = self._f_sq
            cache = [None, None, None]

            def run_ln(values, inputs):
                x = res_x(values, inputs)
                w = res_w(values, inputs)
                b = res_b(values, inputs)
                for k, (a, d) in enumerate(((x, x_d), (w, w_d), (b, b_d))):
                    if a is not cache[k]:
                        if not _check(a, d):
                            fb_counter.inc()
                            fallback(values, inputs)
                            return
                        cache[k] = a
                out = arena.empty(shape, _F4)
                xhat = arena.empty(shape, _F4)
                inv = np.empty(inv_shape, _F4)
                cfn(
                    x.ctypes.data, w.ctypes.data, b.ctypes.data,
                    out.ctypes.data, xhat.ctypes.data, inv.ctypes.data,
                    R, H, eps, sq.ctypes.data,
                )
                ctx = Context()
                ctx.saved = (xhat, inv, w)
                values[i] = (ctx, out)

            return run_ln

        if unit.kind == "embed":
            H = int(unit.meta["H"])
            V = int(unit.meta["V"])
            res_w = _resolver(graph, rec.specs[0])
            res_ids = _resolver(graph, rec.specs[1])
            w_d = rec.descs[1][0]
            cfn = lib.repro_embed_rows_f32

            def run_embed(values, inputs):
                w = res_w(values, inputs)
                ids = res_ids(values, inputs)
                ids64 = ids.astype(np.int64, copy=False)
                if not (
                    _check(w, w_d)
                    and ids64.flags.c_contiguous
                    and (
                        ids64.size == 0
                        or (int(ids64.min()) >= 0 and int(ids64.max()) < V)
                    )
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                out_shape = ids64.shape + (H,)
                out = arena.out_buf(out_shape, _F4)
                if out is None:
                    out = np.empty(out_shape, _F4)
                cfn(w.ctypes.data, ids64.ctypes.data, out.ctypes.data,
                    ids64.size, H)
                ctx = Context()
                ctx.saved = (w.shape, ids64)
                values[i] = (ctx, out)

            return run_embed

        if unit.kind == "gather":
            H = int(unit.meta["H"])
            res_x = _resolver(graph, rec.specs[0])
            res_ids = _resolver(graph, rec.specs[1])
            cfn = lib.repro_gather_rows_f32

            def run_gather(values, inputs):
                x = res_x(values, inputs)
                ids = res_ids(values, inputs)
                ids64 = ids.astype(np.int64, copy=False)
                if not (
                    type(x) is _ndarray
                    and x.dtype is _F4
                    and x.ndim == 2
                    and x.shape[1] == H
                    and x.flags.c_contiguous
                    and ids64.ndim == 1
                    and ids64.flags.c_contiguous
                    and (ids64.size == 0 or int(ids64.max()) < x.shape[0])
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                n = ids64.shape[0]
                out = arena.out_buf((n, H), _F4)
                if out is None:
                    out = np.empty((n, H), _F4)
                cfn(x.ctypes.data, ids64.ctypes.data, out.ctypes.data, n, H)
                ctx = Context()
                ctx.saved = (x.shape, ids64)
                values[i] = (ctx, out)

            return run_gather

        if unit.kind == "scatter":
            H = int(unit.meta["H"])
            num_rows = int(unit.meta["num_rows"])
            res_x = _resolver(graph, rec.specs[0])
            res_ids = _resolver(graph, rec.specs[1])
            cfn = lib.repro_zero_scat_add_f32
            plan = self

            def run_scatter(values, inputs):
                x = res_x(values, inputs)
                ids = res_ids(values, inputs)
                ids64 = ids.astype(np.int64, copy=False)
                if not (
                    type(x) is _ndarray
                    and x.dtype is _F4
                    and x.ndim == 2
                    and x.shape[1] == H
                    and x.flags.c_contiguous
                    and ids64.ndim == 1
                    and ids64.shape[0] == x.shape[0]
                    and ids64.flags.c_contiguous
                    and (ids64.size == 0 or int(ids64.max()) < num_rows)
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                n = ids64.shape[0]
                out = arena.empty((num_rows, H), _F4)
                scr = plan._iscratch(num_rows + 1 + n)
                cfn(out.ctypes.data, ids64.ctypes.data, x.ctypes.data,
                    n, H, num_rows, scr.ctypes.data)
                ctx = Context()
                ctx.saved = (ids64, x.shape)
                values[i] = (ctx, out)

            return run_scatter

        if unit.kind == "sbgelu":
            from repro.sparse.dispatch import live_layout

            res_v = _resolver(graph, rec.specs[0])
            res_b = _resolver(graph, rec.specs[1])
            res_t = _resolver(graph, rec.specs[2])
            cfn1 = lib.repro_sbgelu_fwd1_f32
            cfn2 = lib.repro_gelu_posttanh_f32
            K044 = 0.044715
            C = float(_F._GELU_C)

            def run_sbgelu(values, inputs):
                v = res_v(values, inputs)
                bias = res_b(values, inputs)
                topo = res_t(values, inputs)
                bs = topo.block_size
                if not (
                    type(v) is _ndarray
                    and v.dtype is _F4
                    and v.ndim == 3
                    and v.shape[1] == bs
                    and v.shape[2] == bs
                    and v.flags.c_contiguous
                    and type(bias) is _ndarray
                    and bias.dtype is _F4
                    and bias.ndim == 1
                    and bias.size == topo.block_cols * bs
                    and bias.flags.c_contiguous
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                nnz = v.shape[0]
                colidx = np.ascontiguousarray(topo.column_indices, _I64)
                layout = live_layout(topo)
                rl = layout.block_rows
                a = arena.empty(v.shape, _F4)
                t = arena.empty(v.shape, _F4)
                cfn1(v.ctypes.data, bias.ctypes.data, colidx.ctypes.data,
                     rl.ctypes.data, a.ctypes.data, t.ctypes.data, nnz, bs,
                     K044, C)
                # pad rows of t hold +0.0 and tanh(+0.0) = +0.0
                np.tanh(t, out=t)
                out = arena.empty(v.shape, _F4)
                cfn2(a.ctypes.data, t.ctypes.data, out.ctypes.data,
                     rl.ctypes.data, nnz, bs)
                ctx = Context()
                ctx.saved = (a, t, topo)
                values[i] = (ctx, out)

            return run_sbgelu

        if unit.kind == "attn":
            from repro.autograd.ops_fused import _release_unless_aliased

            res_qkv = _resolver(graph, rec.specs[0])
            res_mask = _resolver(graph, rec.specs[1])
            res_scale = _resolver(graph, rec.specs[2])
            scale = float(unit.meta["scale"])
            nh = unit.meta["nh"]
            hd = unit.meta["hd"]
            qkv_d = rec.descs[1][0]
            cfn1 = lib.repro_attn_fwd1_f32
            cfn2 = lib.repro_attn_fwd2_f32

            def run_attn(values, inputs):
                qkv = res_qkv(values, inputs)
                mask = res_mask(values, inputs)
                scale_obj = res_scale(values, inputs)
                batch, seq, _ = qkv.shape
                if not (
                    _check(qkv, qkv_d)
                    and type(mask) is _ndarray
                    and mask.dtype == np.bool_
                    and mask.size == seq * seq
                    and mask.flags.c_contiguous
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                qkv5 = qkv.reshape(batch, seq, 3, nh, hd).transpose(
                    2, 0, 3, 1, 4
                )
                q, k, v = qkv5[0], qkv5[1], qkv5[2]
                kt = k.transpose(0, 1, 3, 2)
                out = arena.matmul_buf(q, kt)
                scores = q @ kt if out is None else np.matmul(q, kt, out=out)
                buf = arena.empty(scores.shape, _F4)
                cfn1(scores.ctypes.data, mask.ctypes.data, buf.ctypes.data,
                     batch * nh * seq, seq, scale)
                np.exp(buf, out=buf)
                cfn2(buf.ctypes.data, batch * nh * seq, seq)
                probs = buf
                arena.release(scores)
                out = arena.matmul_buf(probs, v)
                ctx4 = probs @ v if out is None else np.matmul(probs, v, out=out)
                merged = arena.reshaped(
                    ctx4.transpose(0, 2, 1, 3), (batch, seq, nh * hd)
                )
                _release_unless_aliased(ctx4, merged)
                ctx = Context()
                ctx.saved = (qkv, probs, mask, scale_obj, (batch, seq, nh, hd))
                values[i] = (ctx, merged)

            return run_attn

        if unit.kind == "getitem_dyn" or unit.kind == "getitem_const":
            res_a = _resolver(graph, rec.specs[0])
            if unit.kind == "getitem_const":
                index = unit.meta["index"]

                def run_getitem_c(values, inputs):
                    a = res_a(values, inputs)
                    ctx = Context()
                    ctx.saved = (a.shape, index)
                    values[i] = (ctx, a[index])

                return run_getitem_c
            res_idx = _resolver(graph, rec.specs[1])

            def run_getitem_d(values, inputs):
                a = res_a(values, inputs)
                index = res_idx(values, inputs)
                ctx = Context()
                ctx.saved = (a.shape, index)
                values[i] = (ctx, a[index])

            return run_getitem_d

        if unit.kind == "reshape":
            shape = unit.meta["shape"]
            res_a = _resolver(graph, rec.specs[0])

            def run_reshape(values, inputs):
                a = res_a(values, inputs)
                ctx = Context()
                ctx.saved = (a.shape,)
                values[i] = (ctx, arena.reshaped(a, shape))

            return run_reshape

        if unit.kind == "transpose":
            axes = unit.meta["axes"]
            inverse = unit.meta["inverse"]
            res_a = _resolver(graph, rec.specs[0])

            def run_transpose(values, inputs):
                a = res_a(values, inputs)
                ctx = Context()
                ctx.saved = (inverse,)
                values[i] = (ctx, np.transpose(a, axes))

            return run_transpose

        if unit.kind == "linbias" or unit.kind == "mm":
            has_bias = unit.kind == "linbias"
            meta = unit.meta
            batch = int(meta["batch"])
            m = int(meta["m"])
            k = int(meta["k"])
            n = int(meta["n"])
            side_trans = int(meta["wtrans" if has_bias else "btrans"])
            side_ld = int(meta["wld" if has_bias else "bld"])
            out_shape = rec.descs[0][1]
            res_x = _resolver(graph, rec.specs[0])
            res_w = _resolver(graph, rec.specs[1])
            res_b = _resolver(graph, rec.specs[2]) if has_bias else None
            descs = [d for d in rec.descs[1][: 3 if has_bias else 2]]
            cfn = lib.repro_linbias_f32 if has_bias else lib.repro_mm_f32
            cache = [None] * len(descs)

            def run_gemm(values, inputs):
                x = res_x(values, inputs)
                w = res_w(values, inputs)
                b = res_b(values, inputs) if has_bias else None
                ops = (x, w, b) if has_bias else (x, w)
                for t, a in enumerate(ops):
                    if a is not cache[t]:
                        if not _check(a, descs[t]):
                            fb_counter.inc()
                            fallback(values, inputs)
                            return
                        cache[t] = a
                out = arena.matmul_buf(x, w)
                if out is None:
                    out = np.empty(out_shape, _F4)
                if has_bias:
                    cfn(x.ctypes.data, w.ctypes.data, b.ctypes.data,
                        out.ctypes.data, batch, m, k, n, side_trans, side_ld)
                else:
                    cfn(x.ctypes.data, w.ctypes.data, out.ctypes.data,
                        batch, m, k, n, side_trans, side_ld)
                ctx = Context()
                ctx.saved = (x, w, b.shape) if has_bias else (x, w)
                values[i] = (ctx, out)

            return run_gemm

        if unit.kind == "softmax":
            shape = unit.meta["shape"]
            n = int(unit.meta["n"])
            rows = 1
            for d in shape[:-1]:
                rows *= int(d)
            if len(rec.specs) > 1:
                axis = rec.specs[1][1]  # _CONST payload (classify checked)
            else:
                axis = (rec.kwargs or {}).get("axis", -1)
            res_x = _resolver(graph, rec.specs[0])
            x_d = rec.descs[1][0]
            cfn1 = lib.repro_softmax_fwd1_f32
            cfn2 = lib.repro_attn_fwd2_f32
            cache = [None]

            def run_softmax(values, inputs):
                x = res_x(values, inputs)
                if x is not cache[0]:
                    if not _check(x, x_d):
                        fb_counter.inc()
                        fallback(values, inputs)
                        return
                    cache[0] = x
                buf = arena.empty(shape, _F4)
                cfn1(x.ctypes.data, buf.ctypes.data, rows, n)
                np.exp(buf, out=buf)
                cfn2(buf.ctypes.data, rows, n)
                ctx = Context()
                ctx.saved = (buf, axis)
                values[i] = (ctx, buf)

            return run_softmax

        if unit.kind == "sdd":
            from repro.sparse import dispatch as _D
            from repro.sparse import stats as _SS

            res_x = _resolver(graph, rec.specs[0])
            res_w = _resolver(graph, rec.specs[1])
            res_t = _resolver(graph, rec.specs[2])
            cfn = lib.repro_grouped_sdd_f32

            def run_sdd(values, inputs):
                x = res_x(values, inputs)
                w = res_w(values, inputs)
                topo = res_t(values, inputs)
                bs = topo.block_size
                dplan = _D.analyze(topo)
                if not _D.use_grouped(dplan, False):
                    # Blocked mode is the *planned* eager path for this
                    # topology (dispatch heuristic), not a guard breach:
                    # replay the host op without counting a fallback.
                    fallback(values, inputs)
                    return
                if not (
                    type(x) is _ndarray
                    and x.dtype is _F4
                    and x.ndim == 2
                    and x.flags.c_contiguous
                    and type(w) is _ndarray
                    and w.dtype is _F4
                    and w.ndim == 2
                    and w.flags.c_contiguous
                    and bs >= 2
                    and x.shape[1] >= 2
                    and w.shape[0] == x.shape[1]
                    and (x.shape[0], w.shape[1]) == topo.shape
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                gt = _D.group_table(topo)
                lt = _D.live_layout(topo).table
                k = x.shape[1]
                vals = arena.empty((topo.nnz_blocks, bs, bs), _F4)
                stage = arena.out_buf((dplan.max_group_blocks * bs * bs,), _F4)
                sbuf = (
                    stage
                    if stage is not None
                    else np.empty(dplan.max_group_blocks * bs * bs, _F4)
                )
                cfn(x.ctypes.data, k, 0, w.ctypes.data, w.shape[1], 0,
                    vals.ctypes.data, gt.ctypes.data, lt.ctypes.data,
                    gt.shape[0], k, bs, sbuf.ctypes.data)
                arena.release(stage)
                _SS.record_product("sdd", _SS.PATH_GROUPED, topo, k)
                ctx = Context()
                ctx.saved = (x, w, topo)
                values[i] = (ctx, vals)

            return run_sdd

        if unit.kind == "dsd":
            from repro.sparse import dispatch as _D
            from repro.sparse import stats as _SS

            res_v = _resolver(graph, rec.specs[0])
            res_w = _resolver(graph, rec.specs[1])
            res_t = _resolver(graph, rec.specs[2])
            cfn = lib.repro_grouped_dsd_f32

            def run_dsd(values, inputs):
                v = res_v(values, inputs)
                w = res_w(values, inputs)
                topo = res_t(values, inputs)
                bs = topo.block_size
                dplan = _D.analyze(topo)
                rows_s, cols_s = topo.shape
                if not _D.use_grouped(dplan, False):
                    # Planned blocked-mode topology, not a guard breach.
                    fallback(values, inputs)
                    return
                if not (
                    type(v) is _ndarray
                    and v.dtype is _F4
                    and v.shape == (topo.nnz_blocks, bs, bs)
                    and v.flags.c_contiguous
                    and type(w) is _ndarray
                    and w.dtype is _F4
                    and w.ndim == 2
                    and w.flags.c_contiguous
                    and bs >= 2
                    and w.shape[0] == cols_s
                    and w.shape[1] >= 2
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                gt = _D.group_table(topo)
                lt = _D.live_layout(topo).table
                n = w.shape[1]
                full = dplan.rows_covered_blocks * bs == rows_s
                out = (
                    arena.empty((rows_s, n), _F4)
                    if full
                    else arena.zeros((rows_s, n), _F4)
                )
                stage = arena.out_buf((dplan.max_group_blocks * bs * bs,), _F4)
                sbuf = (
                    stage
                    if stage is not None
                    else np.empty(dplan.max_group_blocks * bs * bs, _F4)
                )
                cfn(v.ctypes.data, w.ctypes.data, n, 0, out.ctypes.data, n,
                    gt.ctypes.data, lt.ctypes.data, gt.shape[0], 0, bs,
                    sbuf.ctypes.data)
                arena.release(stage)
                _SS.record_product("dsd", _SS.PATH_GROUPED, topo, n)
                ctx = Context()
                ctx.saved = (v, w, topo)
                values[i] = (ctx, out)

            return run_dsd

        if unit.kind == "topk1":
            from repro.autograd.graph import GraphInvalidated, _host_equal

            res_s = _resolver(graph, rec.specs[0])
            cfn = lib.repro_topk1_i64
            guard = rec.guard
            host_fn = rec.fn
            expected = rec.expected

            def run_topk1(values, inputs):
                s = res_s(values, inputs)
                if not (
                    type(s) is _ndarray
                    and s.dtype is _F4
                    and s.ndim == 2
                    and s.shape[1] >= 1
                    and s.flags.c_contiguous
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                out = np.empty((s.shape[0], 1), _I64)
                cfn(s.ctypes.data, out.ctypes.data, s.shape[0], s.shape[1])
                if guard and not _host_equal(out, expected):
                    raise GraphInvalidated(
                        f"guard {host_fn.__name__} diverged from capture: "
                        f"{expected!r} -> {out!r}"
                    )
                values[i] = (None, out)

            return run_topk1

        if unit.kind == "lbfrac":
            from repro.autograd.graph import GraphInvalidated, _host_equal

            E = int(unit.meta["E"])
            res_idx = _resolver(graph, rec.specs[0])
            cfn = lib.repro_lbfrac_f32
            guard = rec.guard
            host_fn = rec.fn
            expected = rec.expected
            plan = self

            def run_lbfrac(values, inputs):
                idx = res_idx(values, inputs)
                ok = type(idx) is _ndarray and idx.dtype.kind in "iu"
                if ok:
                    flat = np.ascontiguousarray(idx.reshape(-1), _I64)
                    nt = flat.size
                    ok = nt == 0 or (
                        int(flat.min()) >= 0 and int(flat.max()) < E
                    )
                if not ok:
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                out = np.empty(E, _F4)
                counts = plan._iscratch(E)
                cfn(flat.ctypes.data, out.ctypes.data, nt, E,
                    counts.ctypes.data)
                if guard and not _host_equal(out, expected):
                    raise GraphInvalidated(
                        f"guard {host_fn.__name__} diverged from capture: "
                        f"{expected!r} -> {out!r}"
                    )
                values[i] = (None, out)

            return run_lbfrac

        if unit.kind == "finite":
            from repro.autograd.graph import GraphInvalidated, _host_equal

            res_x = _resolver(graph, rec.specs[0])
            cfn = lib.repro_allfinite_f32
            guard = rec.guard
            host_fn = rec.fn
            expected = rec.expected

            def run_finite(values, inputs):
                x = res_x(values, inputs)
                if not (
                    type(x) is _ndarray
                    and x.dtype is _F4
                    and x.flags.c_contiguous
                ):
                    fb_counter.inc()
                    fallback(values, inputs)
                    return
                res = bool(cfn(x.ctypes.data, x.size))
                if guard and not _host_equal(res, expected):
                    raise GraphInvalidated(
                        f"guard {host_fn.__name__} diverged from capture: "
                        f"{expected!r} -> {res!r}"
                    )
                values[i] = (None, res)

            return run_finite

        raise LoweringError(f"unhandled kernel kind {unit.kind!r}")

    # -- backward swaps --------------------------------------------------
    def _install_backward(self, analysis: Analysis) -> None:
        graph = self._graph
        bwd_plan = graph._bwd_plan
        for pos, entry in enumerate(bwd_plan):
            kind, slot, ref, _bwd_fn, targets = entry
            if kind != 0:
                continue
            swap = analysis.bwd.get(ref)
            if swap is None:
                continue
            closure = self._make_bwd_closure(ref, swap, targets)
            if closure is None:
                continue
            self._swaps.append((pos, entry))
            bwd_plan[pos] = (kind, slot, ref, closure, targets)

    def _make_bwd_closure(self, ref, swap, targets) -> Optional[Callable]:
        kind, meta = swap
        lib = self._lib
        plan = self

        if kind == "add2":
            orig = _B._Add.backward

            def add2(ctx, g):
                sa, sb = ctx.saved
                if g.shape == sa and g.shape == sb:
                    return (g, g)
                return orig(ctx, g)

            return add2

        if kind == "dropres2":
            orig = _F._DropoutResidual.backward

            def dropres2(ctx, g):
                mask, sy, sr = ctx.saved
                if mask is None and g.shape == sy and g.shape == sr:
                    return (g, g)
                return orig(ctx, g)

            return dropres2

        if kind == "mul":
            orig = _B._Mul.backward
            cfn = lib.repro_mul_bwd_f32
            want_a = len(targets) > 0 and targets[0] >= 0
            want_b = len(targets) > 1 and targets[1] >= 0

            def mul_bwd(ctx, g):
                a, b = ctx.saved
                if not (
                    type(g) is _ndarray
                    and g.dtype is _F4
                    and type(a) is _ndarray
                    and type(b) is _ndarray
                    and a.dtype is _F4
                    and b.dtype is _F4
                    and a.shape == g.shape
                    and b.shape == g.shape
                    and g.flags.c_contiguous
                    and a.flags.c_contiguous
                    and b.flags.c_contiguous
                ):
                    return orig(ctx, g)
                ga = arena.empty(g.shape, _F4) if want_a else None
                gb = arena.empty(g.shape, _F4) if want_b else None
                cfn(
                    g.ctypes.data, a.ctypes.data, b.ctypes.data,
                    ga.ctypes.data if ga is not None else None,
                    gb.ctypes.data if gb is not None else None,
                    g.size,
                )
                return (ga, gb)

            return mul_bwd

        if kind == "ln":
            orig = _N._LayerNorm.backward
            cfn = lib.repro_ln_bwd_f32
            shape = meta["shape"]
            H = int(meta["H"])
            R = 1
            for d in shape[:-1]:
                R *= int(d)
            inv_shape = shape[:-1] + (1,)

            def ln_bwd(ctx, g):
                xhat, inv, w = ctx.saved
                if not (
                    type(g) is _ndarray
                    and g.dtype is _F4
                    and g.shape == shape
                    and g.flags.c_contiguous
                    and xhat.shape == shape
                    and xhat.dtype is _F4
                    and xhat.flags.c_contiguous
                    and inv.shape == inv_shape
                    and inv.flags.c_contiguous
                    and w.shape == (H,)
                    and w.dtype is _F4
                    and w.flags.c_contiguous
                ):
                    return orig(ctx, g)
                gx = arena.empty(shape, _F4)
                gw = np.empty(H, _F4)
                gb = np.empty(H, _F4)
                cfn(
                    g.ctypes.data, xhat.ctypes.data, inv.ctypes.data,
                    w.ctypes.data, gx.ctypes.data, gw.ctypes.data,
                    gb.ctypes.data, R, H,
                    plan._f_sq.ctypes.data, plan._f_pr.ctypes.data,
                )
                return gx, gw, gb

            return ln_bwd

        if kind == "embed":
            orig = _N._Embedding.backward
            cfn = lib.repro_zero_scat_add_f32

            def embed_bwd(ctx, g):
                shape, ids = ctx.saved
                n = ids.size
                h = shape[-1]
                if not (
                    type(g) is _ndarray
                    and g.dtype is _F4
                    and g.flags.c_contiguous
                    and g.shape == ids.shape + (h,)
                    and ids.flags.c_contiguous
                    and len(shape) == 2
                    and (n == 0 or (int(ids.min()) >= 0 and int(ids.max()) < shape[0]))
                ):
                    return orig(ctx, g)
                gw = arena.empty(shape, _F4)
                scr = plan._iscratch(shape[0] + 1 + n)
                cfn(gw.ctypes.data, ids.ctypes.data, g.ctypes.data,
                    n, h, shape[0], scr.ctypes.data)
                return (gw,)

            return embed_bwd

        if kind == "gather":
            orig = _N._GatherRows.backward
            cfn = lib.repro_zero_scat_add_f32

            def gather_bwd(ctx, g):
                shape, ids = ctx.saved
                n = ids.size
                if not (
                    type(g) is _ndarray
                    and g.dtype is _F4
                    and g.flags.c_contiguous
                    and len(shape) == 2
                    and g.shape == (n,) + tuple(shape[1:])
                    and ids.flags.c_contiguous
                    and (n == 0 or int(ids.max()) < shape[0])
                ):
                    return orig(ctx, g)
                gx = arena.empty(shape, _F4)
                scr = plan._iscratch(shape[0] + 1 + n)
                cfn(gx.ctypes.data, ids.ctypes.data, g.ctypes.data,
                    n, shape[1], shape[0], scr.ctypes.data)
                return (gx,)

            return gather_bwd

        if kind == "scatter":
            orig = _N._ScatterRows.backward
            cfn = lib.repro_gather_assign_f32

            def scatter_bwd(ctx, g):
                ids, shape = ctx.saved
                n = ids.size
                if not (
                    type(g) is _ndarray
                    and g.dtype is _F4
                    and g.flags.c_contiguous
                    and len(shape) == 2
                    and g.ndim == 2
                    and g.shape[1] == shape[1]
                    and shape[0] == n
                    and ids.flags.c_contiguous
                    and (n == 0 or int(ids.max()) < g.shape[0])
                ):
                    return orig(ctx, g)
                gx = arena.empty(tuple(shape), _F4)
                cfn(g.ctypes.data, ids.ctypes.data, gx.ctypes.data,
                    n, shape[1])
                return (gx,)

            return scatter_bwd

        if kind == "sbgelu" or kind == "biasgelu":
            # C replica of the chainable ``_gelu_bwd`` ufunc sequence.
            # The guard (one shared f32 dtype) implies ``_chainable``
            # would have picked that same sequence, so bit-identity
            # holds; contiguity is what the flat C loop itself needs.
            cfn = lib.repro_gelu_bwd_f32
            K = float(3 * 0.044715)
            C = float(_F._GELU_C)

            def _gelu_bwd_c(g, a, t):
                if not (
                    type(g) is _ndarray
                    and g.dtype is _F4
                    and a.dtype is _F4
                    and t.dtype is _F4
                    and a.shape == g.shape
                    and t.shape == g.shape
                    and g.flags.c_contiguous
                    and a.flags.c_contiguous
                    and t.flags.c_contiguous
                ):
                    return None
                out = arena.empty(g.shape, _F4)
                cfn(g.ctypes.data, a.ctypes.data, t.ctypes.data,
                    out.ctypes.data, g.size, K, C)
                return out

            if kind == "sbgelu":
                from repro.sparse.autograd_ops import _SparseBiasGelu
                from repro.sparse.dispatch import live_layout
                from repro.sparse.ops import segment_meta

                orig_s = _SparseBiasGelu.backward
                ccol = lib.repro_gelu_bwd_colsum_f32
                cseg = lib.repro_segsum_tr_f32

                def sbgelu_bwd(ctx, grad):
                    a, t, topo = ctx.saved
                    bs = topo.block_size
                    if not (
                        type(grad) is _ndarray
                        and grad.dtype is _F4
                        and grad.ndim == 3
                        and grad.shape[1] == bs
                        and grad.shape[2] == bs
                        and bs > 1
                        and grad.flags.c_contiguous
                        and a.shape == grad.shape
                        and a.dtype is _F4
                        and a.flags.c_contiguous
                        and t.shape == grad.shape
                        and t.dtype is _F4
                        and t.flags.c_contiguous
                    ):
                        return orig_s(ctx, grad)
                    nnz = grad.shape[0]
                    rl = live_layout(topo).block_rows
                    g = arena.empty(grad.shape, _F4)
                    colsum = arena.empty((nnz, bs), _F4)
                    ccol(grad.ctypes.data, a.ctypes.data, t.ctypes.data,
                         g.ctypes.data, colsum.ctypes.data, rl.ctypes.data,
                         nnz, bs, K, C)
                    # The tail of _segment_reduce_bias_grad with the
                    # per-block column sums already computed: the
                    # transpose-order ``np.add.reduceat`` as a native
                    # segment loop (first element + pairwise rest per
                    # segment — reduceat's exact reduction shape).
                    gbias = arena.zeros((topo.block_cols, bs), grad.dtype)
                    nonempty, starts = segment_meta(topo, transpose=True)
                    if len(nonempty):
                        tbo, ne, st = _tr_segments(topo, nonempty, starts)
                        cseg(colsum.ctypes.data, tbo.ctypes.data,
                             ne.ctypes.data, st.ctypes.data,
                             gbias.ctypes.data, len(ne), bs)
                    arena.release(colsum)
                    return g, gbias.reshape(-1)

                return sbgelu_bwd

            from repro.autograd.function import unbroadcast

            orig_b = _F._BiasGelu.backward

            def biasgelu_bwd(ctx, grad):
                a, t, sx, sb = ctx.saved
                g = _gelu_bwd_c(grad, a, t)
                if g is None:
                    return orig_b(ctx, grad)
                return unbroadcast(g, sx), unbroadcast(g, sb)

            return biasgelu_bwd

        if kind == "attn":
            from repro.autograd.ops_fused import _release_unless_aliased

            orig = _F._AttentionCore.backward
            cfn = lib.repro_attn_bwd_f32

            def attn_bwd(ctx, grad):
                qkv, probs, mask, scale, dims = ctx.saved
                batch, seq, num_heads, head_dim = dims
                if not (
                    type(grad) is _ndarray
                    and grad.dtype is _F4
                    and grad.flags.c_contiguous
                    and probs.dtype is _F4
                    and probs.flags.c_contiguous
                    and type(mask) is _ndarray
                    and mask.dtype == np.bool_
                    and mask.size == seq * seq
                    and mask.flags.c_contiguous
                ):
                    return orig(ctx, grad)
                qkv5 = qkv.reshape(batch, seq, 3, num_heads, head_dim).transpose(
                    2, 0, 3, 1, 4
                )
                q, k, v = qkv5[0], qkv5[1], qkv5[2]
                g_ctx = np.transpose(
                    arena.reshaped(grad, (batch, seq, num_heads, head_dim)),
                    (0, 2, 1, 3),
                )
                bt = v.swapaxes(-1, -2)
                out = arena.matmul_buf(g_ctx, bt)
                g_probs = g_ctx @ bt if out is None else np.matmul(g_ctx, bt, out=out)
                at = probs.swapaxes(-1, -2)
                out = arena.matmul_buf(at, g_ctx)
                g_v = at @ g_ctx if out is None else np.matmul(at, g_ctx, out=out)
                if not g_probs.flags.c_contiguous:
                    return orig(ctx, grad)
                buf = arena.empty(g_probs.shape, _F4)
                cfn(g_probs.ctypes.data, probs.ctypes.data, mask.ctypes.data,
                    buf.ctypes.data, batch * num_heads * seq, seq, float(scale))
                g_scores = buf
                arena.release(g_probs)
                out = arena.matmul_buf(g_scores, k)
                g_q = g_scores @ k if out is None else np.matmul(g_scores, k, out=out)
                at = q.swapaxes(-1, -2)
                out = arena.matmul_buf(at, g_scores)
                g_kt = at @ g_scores if out is None else np.matmul(at, g_scores, out=out)
                arena.release(g_scores)
                g_k = g_kt.transpose(0, 1, 3, 2)
                g5 = arena.empty(
                    (3, batch, num_heads, seq, head_dim), grad.dtype
                )
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

            return attn_bwd

        if kind == "linbias":
            orig = _F._LinearBias.backward
            cfn = lib.repro_sum_lead_f32

            def linbias_bwd(ctx, grad):
                from repro.autograd.ops_basic import _unbroadcast_release

                x, w, sb = ctx.saved
                h = sb[0] if len(sb) == 1 else 0
                # h > 1 is load-bearing: NumPy reduces leading axes as
                # sequential row adds only while the kept axis is wider
                # than one element (h == 1 goes pairwise).
                if not (
                    type(grad) is _ndarray
                    and grad.dtype is _F4
                    and grad.flags.c_contiguous
                    and grad.ndim in (2, 3)
                    and grad.shape[-1] == h
                    and h > 1
                ):
                    return orig(ctx, grad)
                gb = arena.out_buf((h,), _F4)
                if gb is None:
                    gb = np.empty(h, _F4)
                cfn(grad.ctypes.data, gb.ctypes.data, grad.size // h, h)
                wt = w.swapaxes(-1, -2)
                out = arena.matmul_buf(grad, wt)
                gx = grad @ wt if out is None else np.matmul(grad, wt, out=out)
                xt = x.swapaxes(-1, -2)
                out = arena.matmul_buf(xt, grad)
                gw = xt @ grad if out is None else np.matmul(xt, grad, out=out)
                if gx.shape != x.shape:
                    gx = _unbroadcast_release(gx, x.shape)
                if gw.shape != w.shape:
                    gw = _unbroadcast_release(gw, w.shape)
                return gx, gw, gb

            return linbias_bwd

        if kind == "getitem":
            orig = _B._GetItem.backward
            flat_fn = lib.repro_getitem_flat_f32
            scat_fn = lib.repro_zero_scat_add_f32

            def getitem_bwd(ctx, g):
                shape, index = ctx.saved
                if not (type(g) is _ndarray and g.dtype is _F4):
                    return orig(ctx, g)
                if (
                    type(index) is tuple
                    and len(index) == 2
                    and len(shape) == 2
                    and isinstance(index[0], _ndarray)
                    and isinstance(index[1], _ndarray)
                    and index[0].shape == index[1].shape
                    and index[0].dtype.kind in "iu"
                    and index[1].dtype.kind in "iu"
                    and g.shape == index[0].shape
                    and g.flags.c_contiguous
                ):
                    i0 = np.ascontiguousarray(index[0], np.int64)
                    i1 = np.ascontiguousarray(index[1], np.int64)
                    n = i0.size
                    if n == 0 or (
                        int(i0.min()) >= 0
                        and int(i1.min()) >= 0
                        and int(i0.max()) < shape[0]
                        and int(i1.max()) < shape[1]
                    ):
                        nout = shape[0] * shape[1]
                        out = arena.empty(shape, _F4)
                        scr = plan._iscratch(n + nout + 1 + n)
                        flat_fn(
                            out.ctypes.data, i0.ctypes.data, i1.ctypes.data,
                            g.ctypes.data, n, shape[1], nout, scr.ctypes.data,
                        )
                        return (out,)
                    return orig(ctx, g)
                if (
                    isinstance(index, _ndarray)
                    and index.ndim == 1
                    and index.dtype.kind in "iu"
                    and len(shape) == 2
                    and g.shape == (index.shape[0],) + tuple(shape[1:])
                    and g.flags.c_contiguous
                ):
                    ids = np.ascontiguousarray(index, np.int64)
                    n = ids.size
                    if n == 0 or (
                        int(ids.min()) >= 0 and int(ids.max()) < shape[0]
                    ):
                        out = arena.empty(shape, _F4)
                        scr = plan._iscratch(shape[0] + 1 + n)
                        scat_fn(
                            out.ctypes.data, ids.ctypes.data, g.ctypes.data,
                            n, shape[1], shape[0], scr.ctypes.data,
                        )
                        return (out,)
                    return orig(ctx, g)
                return orig(ctx, g)

            return getitem_bwd

        if kind == "sdd" or kind == "dsd":
            # Grouped transposed products of MegaBlocks §5.1, through
            # NumPy's own sgemm.  Any check failure (including a forced
            # "blocked" dispatch mode or a non-rectangular topology)
            # falls back wholesale to the original backward, which
            # re-runs the full dispatch decision per product.
            from repro.sparse import dispatch as _D
            from repro.sparse import stats as _SS
            from repro.sparse.autograd_ops import _DsdMM, _SddMM

            csdd = lib.repro_grouped_sdd_f32
            cdsd = lib.repro_grouped_dsd_f32
            cdds = lib.repro_grouped_dds_f32
            grouped = _SS.PATH_GROUPED
            rec_op = _SS.record_product

            def _stage_for(dplan, bs):
                size = dplan.max_group_blocks * bs * bs
                buf = arena.out_buf((size,), _F4)
                return buf, (buf if buf is not None else np.empty(size, _F4))

            if kind == "sdd":
                orig = _SddMM.backward

                def sdd_bwd(ctx, grad):
                    x, w, topo = ctx.saved
                    bs = topo.block_size
                    dplan = _D.analyze(topo)
                    rows_s, cols_s = topo.shape
                    if not (
                        _D.use_grouped(dplan, False)
                        and _D.use_grouped(dplan, True)
                        and type(grad) is _ndarray
                        and grad.dtype is _F4
                        and grad.shape == (topo.nnz_blocks, bs, bs)
                        and grad.flags.c_contiguous
                        and type(x) is _ndarray
                        and x.dtype is _F4
                        and x.ndim == 2
                        and x.flags.c_contiguous
                        and type(w) is _ndarray
                        and w.dtype is _F4
                        and w.ndim == 2
                        and w.flags.c_contiguous
                        and bs >= 2
                        and x.shape[1] >= 2
                        and x.shape[0] == rows_s
                        and w.shape == (x.shape[1], cols_s)
                    ):
                        return orig(ctx, grad)
                    gt = _D.group_table(topo)
                    lt = _D.live_layout(topo).table
                    G = gt.shape[0]
                    k = x.shape[1]
                    stage, sbuf = _stage_for(dplan, bs)
                    # DSD^T: dX = dH @ W^T over group row slices.
                    full = dplan.rows_covered_blocks * bs == rows_s
                    dx = (
                        arena.empty((rows_s, k), _F4)
                        if full
                        else arena.zeros((rows_s, k), _F4)
                    )
                    cdsd(grad.ctypes.data, w.ctypes.data, w.shape[1], 1,
                         dx.ctypes.data, k, gt.ctypes.data, lt.ctypes.data,
                         G, 0, bs, sbuf.ctypes.data)
                    rec_op("dsd", grouped, topo, k)
                    # DD^TS: dW = X^T @ dH into group column bands.
                    dw = _D.band_output(dplan, bs, (k, cols_s), _F4, 1)
                    cdds(x.ctypes.data, k, 1, grad.ctypes.data,
                         dw.ctypes.data, k, cols_s, gt.ctypes.data,
                         lt.ctypes.data, G, 0, bs, sbuf.ctypes.data)
                    arena.release(stage)
                    rec_op("dds", grouped, topo, k)
                    return dx, dw

                return sdd_bwd

            orig = _DsdMM.backward

            def dsd_bwd(ctx, grad):
                h_values, w, topo = ctx.saved
                bs = topo.block_size
                dplan = _D.analyze(topo)
                rows_s, cols_s = topo.shape
                if not (
                    _D.use_grouped(dplan, False)
                    and _D.use_grouped(dplan, True)
                    and type(grad) is _ndarray
                    and grad.dtype is _F4
                    and grad.ndim == 2
                    and grad.flags.c_contiguous
                    and type(h_values) is _ndarray
                    and h_values.dtype is _F4
                    and h_values.shape == (topo.nnz_blocks, bs, bs)
                    and h_values.flags.c_contiguous
                    and type(w) is _ndarray
                    and w.dtype is _F4
                    and w.flags.c_contiguous
                    and bs >= 2
                    and grad.shape[0] == rows_s
                    and grad.shape[1] >= 2
                    and w.shape == (cols_s, grad.shape[1])
                ):
                    return orig(ctx, grad)
                gt = _D.group_table(topo)
                lt = _D.live_layout(topo).table
                G = gt.shape[0]
                n = grad.shape[1]
                stage, sbuf = _stage_for(dplan, bs)
                # SDD^T: dH = dY @ W^T sampled at H's topology.
                dh = arena.empty((topo.nnz_blocks, bs, bs), _F4)
                csdd(grad.ctypes.data, n, 0, w.ctypes.data, w.shape[1], 1,
                     dh.ctypes.data, gt.ctypes.data, lt.ctypes.data, G, n,
                     bs, sbuf.ctypes.data)
                rec_op("sdd", grouped, topo, n)
                # DS^TD: dW = H^T @ dY into group column-range rows.
                dw = _D.band_output(dplan, bs, (cols_s, n), _F4, 0)
                cdsd(h_values.ctypes.data, grad.ctypes.data, n, 0,
                     dw.ctypes.data, n, gt.ctypes.data, lt.ctypes.data, G, 1,
                     bs, sbuf.ctypes.data)
                arena.release(stage)
                rec_op("ds^td", grouped, topo, n)
                return dh, dw

            return dsd_bwd

        if kind == "softmax2":
            orig = _N._Softmax.backward
            cfn = lib.repro_softmax_bwd_f32

            def softmax2_bwd(ctx, g):
                out, axis = ctx.saved
                if not (
                    type(g) is _ndarray
                    and g.dtype is _F4
                    and g.shape == out.shape
                    and g.flags.c_contiguous
                    and type(out) is _ndarray
                    and out.dtype is _F4
                    and out.flags.c_contiguous
                    and axis in (-1, out.ndim - 1)
                    and out.shape[-1] >= 1
                ):
                    return orig(ctx, g)
                n = out.shape[-1]
                buf = arena.empty(g.shape, _F4)
                cfn(g.ctypes.data, out.ctypes.data, buf.ctypes.data,
                    g.size // n, n)
                return (buf,)

            return softmax2_bwd

        return None


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def attach(graph, strict: bool = False) -> Optional[LoweredPlan]:
    """Lower ``graph`` to native code and install the plan on it.

    Returns the installed :class:`LoweredPlan`, or ``None`` when the
    toolchain is unavailable or compilation failed — in which case the
    graph keeps replaying on the pure-NumPy path (the PR 5 behavior)
    and ``lower_toolchain_fallbacks`` is bumped.  With ``strict=True``
    a would-be-fusable record with an unpinnable dynamic argument
    raises :class:`LoweringError` instead of silently staying host.
    """
    from repro.observability.metrics import registry

    reg = registry()
    analysis = analyze(graph, strict)
    if not toolchain.cc_available():
        reg.counter("lower_toolchain_fallbacks").inc()
        return None
    source = csrc.render_unit(analysis)
    lib = toolchain.compile_and_load(source, tag="graph2")
    if lib is None:
        reg.counter("lower_toolchain_fallbacks").inc()
        return None
    plan = LoweredPlan(graph, lib, analysis)
    graph.attach_lowered(plan)
    reg.counter("graph_lowered").inc()
    return plan
