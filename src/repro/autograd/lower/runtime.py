"""Execution layer for lowered step graphs.

:func:`attach` analyzes a sealed :class:`StepGraph`, loads the process's
prelude library, compiles the graph's own fused segments, and installs
a :class:`LoweredPlan` on the graph.  The plan owns:

- a flat list of *items* — closures that replace the replay
  interpreter's record loop.  Fused segments call into the graph's
  segment unit through persistent ctypes argument buffers; kernel units
  run the forward runner their kernel-table entry builds; host runs
  execute the interpreter's own loop over their records.
- the backward swaps: selected ``_bwd_plan`` entries are replaced in
  place with closures of identical ``(ctx, grad) -> tuple`` semantics
  (``detach`` restores the originals).

Every native call sits behind a guard built from the entry's operand
contract (or, for a fused segment, from the layouts baked at capture),
identity-cached so steady-state replays pay one ``is`` check per pinned
operand.  A forward guard miss runs the original NumPy records for just
that unit and bumps ``lower_segment_fallbacks``; a backward one runs the
op's own ``backward`` — lowering never changes semantics, only
dispatch.  The wrappers here (``_OP_ITEM`` / ``_HOST_ITEM`` forward,
:func:`make_backward`) are the only place that happens.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Any, Callable, List, Optional

import numpy as np

from repro.autograd import arena
from repro.autograd.function import Context
from repro.autograd.graph import (
    _CONST, _INPUT, _LEAF, _REC, GraphInvalidated, _host_equal, _OpRecord,
)
from repro.autograd.lower import csrc, kernels, toolchain
from repro.autograd.lower.kernels.base import I64, Build, matches
from repro.autograd.lower.segmenter import Analysis, FusedSeg, PyUnit, analyze

__all__ = ["LoweredPlan", "attach", "bind", "load_prelude"]

_ndarray = np.ndarray
_c_void_p = ctypes.c_void_p


def bind(lib) -> None:
    """Set argtypes/restype on the prelude's symbols from the kernel
    table, and inject the address of NumPy's own ``cblas_sgemm`` so the
    GEMM-backed kernels reduce in exactly NumPy's order.  When the BLAS
    probe fails the pointer stays NULL — no contract admits a
    GEMM-backed unit in that case, so nothing dereferences it."""
    for entry in kernels.TABLE:
        for name, (argtypes, restype) in entry.symbols.items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, restype
    from repro.autograd.lower import blas

    addr = blas.sgemm_addr()
    if addr:
        lib.repro_set_blas(addr)


def load_prelude() -> Optional[ctypes.CDLL]:
    """The prelude library — one per process: compiled (or served from
    the cache) and bound on first use, the same object afterwards.
    ``None`` when the toolchain is unavailable or the compile failed."""
    lib = toolchain.compile_and_load(csrc.PRELUDE, tag="prelude")
    # ``bind`` leaves its mark on the library: a symbol with argtypes.
    if lib is not None and lib.repro_set_blas.argtypes is None:
        bind(lib)
    return lib


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


def make_backward(entry, build: Build, orig: Callable) -> Callable:
    """The closure that replaces ``orig`` (an op's ``backward``) with
    ``entry``'s: guard the live ``(grad, *ctx.saved)``, run, and fall
    back to ``orig`` when either declines."""
    descs = entry.bwd_descs(build.rec) if entry.bwd_descs else None
    call = entry.bwd_guard.guard(entry.backward(build), descs)

    def backward(ctx, grad):
        grads = call(grad, *ctx.saved)
        return grads if grads is not None else orig(ctx, grad)

    return backward


#: The one forward wrapper, as source: resolve the record's arguments
#: (``{args}``: each spec unrolled to the expression ``StepGraph._resolve``
#: would evaluate), call the entry's guarded runner, store the result —
#: or count a fallback and replay the record on the interpreter
#: (uncounted when the runner says declining was the planned path).
_OP_ITEM = """
def item(values, inputs):
    res = call({args})
    if res:
        ctx = Context()
        ctx.saved, out = res
        values[{i}] = (ctx, out)
        return
    if res is None:
        count()
    fallback(values, inputs)
"""

#: ... and for a host record, whose capture-time guard it preserves.
_HOST_ITEM = """
def item(values, inputs):
    res = call({args})
    if res is None:
        count()
        fallback(values, inputs)
        return
    if guard and not host_equal(res[0], expected):
        raise GraphInvalidated(
            f"guard {{name}} diverged from capture: {{expected!r}} -> {{res[0]!r}}"
        )
    values[{i}] = (None, res[0])
"""


class LoweredPlan:
    """A compiled execution schedule swapped into ``StepGraph.replay``."""

    def __init__(self, graph, lib, segments, analysis: Analysis):
        self._graph = graph
        self._lib = lib
        self._segments = segments
        self._nrec = len(graph.records)
        self.records_total = analysis.total
        self.records_lowered = len(analysis.lowered)
        self.records_native = len(analysis.native)
        self.num_segments = sum(
            1 for u in analysis.units if isinstance(u, FusedSeg)
        )
        from repro.observability.metrics import registry

        self._fallback_counter = registry().counter("lower_segment_fallbacks")
        # Shared int64 scratch for the scatter kernels, grown on demand;
        # replays are single-threaded so one block serves every unit.
        self._iscr = np.empty(256, I64)

        self._items: List[Callable] = []
        for unit in analysis.units:
            if isinstance(unit, PyUnit):
                self._items.append(self._records_item(unit.indices))
            elif isinstance(unit, FusedSeg):
                self._items.append(self._fused_item(unit))
            else:
                self._items.append(self._kernel_item(unit))

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
            self._iscr = np.empty(max(need, 2 * self._iscr.size), I64)
        return self._iscr

    def _records_item(self, indices) -> Callable:
        """Run a subset of records through the replay interpreter."""
        return functools.partial(self._graph._run_records, tuple(indices))

    # -- fused elementwise segments --------------------------------------
    def _fused_item(self, seg: FusedSeg) -> Callable:
        """Runner for one fused segment, whatever its loop shape.

        Each ext operand relates to the live shape in one of three ways
        (``seg.ekinds``): *baked* — the captured layout is compiled in,
        so the operand must match it exactly; *full* — contiguous, of
        the one live shape every full operand shares per call; *row* —
        contiguous, that shape with a trailing 1.  For full/row segments
        the baked shape is only a hint: the element (``flat``) or row
        (``flat2``, last-axis width baked) count feeds the C loop
        through a persistent ``i64`` slot, which keeps the
        routing-dependent expert-segment chains native when the padded
        row count drifts between micro batches.  Operands are
        identity-cached; shapes are re-related only when one changed."""
        cfn = getattr(self._segments, seg.name)
        cfn.argtypes = [ctypes.POINTER(_c_void_p)]
        cfn.restype = None

        graph = self._graph
        ne = len(seg.ext)
        stores = [s for s in seg.steps if s.materialize]
        nstores = len(stores)
        kinds = seg.ekinds
        dynamic = seg.flat or seg.flat2
        argv = (_c_void_p * (ne + nstores + dynamic))()
        ext_res = [_resolver(graph, spec) for spec, _desc, _st in seg.ext]
        cache: List[Any] = [None] * ne
        ocache: List[Any] = [None] * nstores
        shape = seg.shape
        dstr = seg.dtype
        dtype = np.dtype(dstr)
        nd = len(shape)
        fallback = self._records_item(seg.indices)
        fb_counter = self._fallback_counter
        # The baked last-axis extent an operand keeps (flat2 only).
        width = int(shape[-1]) if seg.flat2 else 1
        last = [
            None if not seg.flat2 else width if how == "full" else 1
            for how in kinds
        ]
        if dynamic:
            anchor = kinds.index("full")
            nbuf = np.full(1, -1, I64)
            argv[ne + nstores] = nbuf.ctypes.data

        # What each operand is checked against when its identity changes.
        baked = [
            seg.ext[k][1] if kinds[k] == "baked" else None for k in range(ne)
        ]

        def decline(values, inputs):
            for j in range(ne):
                cache[j] = None
            fb_counter.inc()
            fallback(values, inputs)

        # Per-step Context recipes.  A saved shape is ``()`` for a
        # literal, the baked operand shape for a baked ext, and per call
        # the live shape (or its trailing-1 row shape) otherwise.
        def shape_code(ref):
            tag, payload = ref
            if tag == "lit":
                return 0
            if tag == "ext":
                if kinds[payload] == "baked":
                    return seg.ext[payload][1][1]
                if kinds[payload] == "row":
                    return 2
            return 1

        recipes = []
        store_slot = {s.index: t for t, s in enumerate(stores)}
        for s in seg.steps:
            if s.ctx_saves == "arrays":
                recipes.append((s.index, s.ctx_saves, s.lhs, s.rhs))
            elif s.ctx_saves == "dropres":
                # saved = (mask, y shape, residual shape); lhs is residual
                recipes.append(
                    (s.index, s.ctx_saves, shape_code(s.rhs), shape_code(s.lhs))
                )
            else:
                recipes.append(
                    (s.index, s.ctx_saves, shape_code(s.lhs), shape_code(s.rhs))
                )

        def run(values, inputs):
            dirty = False
            for k in range(ne):
                a = ext_res[k](values, inputs)
                if a is not cache[k]:
                    if not (
                        matches(a, baked[k])
                        if baked[k] is not None
                        else type(a) is _ndarray
                        and a.dtype.str == dstr
                        and a.ndim == nd
                        and (last[k] is None or a.shape[-1] == last[k])
                        and a.flags.c_contiguous
                    ):
                        return decline(values, inputs)
                    argv[k] = a.ctypes.data
                    cache[k] = a
                    dirty = True
            if dynamic:
                live = cache[anchor].shape
                row = live[:-1] + (1,)
                if dirty:
                    for k in range(ne):
                        if cache[k].shape != (live if kinds[k] == "full" else row):
                            return decline(values, inputs)
                    nbuf[0] = cache[anchor].size // width
            else:
                live, row = shape, None
            bufs = []
            for t in range(nstores):
                buf = arena.empty(live, dtype)
                if buf is not ocache[t]:
                    argv[ne + t] = buf.ctypes.data
                    ocache[t] = buf
                bufs.append(buf)
            cfn(argv)

            def operand(ref):
                tag, payload = ref
                if tag == "ext":
                    return cache[payload]
                if tag == "tmp":
                    return bufs[store_slot[payload]]
                return payload  # literal scalar

            shapes = ((), live, row)
            for ridx, saves, pa, pb in recipes:
                ctx = Context()
                if saves == "arrays":
                    ctx.saved = (operand(pa), operand(pb))
                else:
                    sa = pa if pa.__class__ is tuple else shapes[pa]
                    sb = pb if pb.__class__ is tuple else shapes[pb]
                    ctx.saved = (sa, sb) if saves == "shapes2" else (None, sa, sb)
                t = store_slot.get(ridx)
                values[ridx] = (ctx, bufs[t] if t is not None else None)

        return run

    # -- kernel units ----------------------------------------------------
    def _kernel_item(self, unit) -> Callable:
        """One record replaced by its entry's guarded forward runner:
        ``_OP_ITEM`` / ``_HOST_ITEM`` with the record's arguments
        unrolled, so the per-call path is one flat function over
        pre-bound names."""
        graph, i = self._graph, unit.index
        rec = graph.records[i]
        descs = getattr(rec, "descs", None)
        run = unit.entry.forward(Build(rec, self._lib, self._iscratch))
        env = {
            "call": unit.entry.contract.guard(run, descs[1] if descs else None),
            "count": self._fallback_counter.inc,
            "fallback": self._records_item((i,)),
            "resolve": graph._resolve,
            "Context": Context,
        }
        args = []
        for k, spec in enumerate(rec.specs):
            tag = spec[0]
            if tag == _REC:
                args.append(f"values[{spec[1]}][1]")
            elif tag == _INPUT:
                args.append(f"inputs[{spec[1]!r}]")
            elif tag == _LEAF:
                env[f"leaf{k}"] = spec[1]
                args.append(f"leaf{k}.data")
            elif tag == _CONST:
                env[f"const{k}"] = spec[1]
                args.append(f"const{k}")
            else:
                env[f"spec{k}"] = spec
                args.append(f"resolve(spec{k}, values, inputs)")
        source = _OP_ITEM
        if type(rec) is not _OpRecord:
            source = _HOST_ITEM
            env.update(
                guard=rec.guard, expected=rec.expected, name=rec.fn.__name__,
                host_equal=_host_equal, GraphInvalidated=GraphInvalidated,
            )
        exec(source.format(i=i, args=", ".join(args)), env)
        return env["item"]

    # -- backward swaps --------------------------------------------------
    def _install_backward(self, analysis: Analysis) -> None:
        graph = self._graph
        bwd_plan = graph._bwd_plan
        for pos, entry in enumerate(bwd_plan):
            kind, slot, ref, orig, targets = entry
            swap = analysis.bwd.get(ref) if kind == 0 else None
            if swap is None:
                continue
            build = Build(graph.records[ref], self._lib, self._iscratch, targets)
            self._swaps.append((pos, entry))
            bwd_plan[pos] = (
                kind, slot, ref, make_backward(swap[1], build, orig), targets
            )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def attach(graph, strict: bool = False) -> Optional[LoweredPlan]:
    """Lower ``graph`` to native code and install the plan on it.

    Returns the installed :class:`LoweredPlan`, or ``None`` when the
    toolchain is unavailable or compilation failed — in which case the
    graph keeps replaying on the pure-NumPy path and
    ``lower_toolchain_fallbacks`` is bumped.  With ``strict=True``
    a would-be-fusable record with an unpinnable dynamic argument
    raises :class:`LoweringError` instead of silently staying host.
    """
    from repro.observability.metrics import registry

    reg = registry()
    analysis = analyze(graph, strict)
    lib = load_prelude() if toolchain.cc_available() else None
    # A graph with no fused segment has no unit of its own to compile.
    source = csrc.render_unit(analysis)
    segments = None
    if lib is not None and source:
        segments = toolchain.compile_and_load(source, tag="graph2")
    if lib is None or (source and segments is None):
        reg.counter("lower_toolchain_fallbacks").inc()
        return None
    plan = LoweredPlan(graph, lib, segments, analysis)
    graph.attach_lowered(plan)
    reg.counter("graph_lowered").inc()
    return plan
