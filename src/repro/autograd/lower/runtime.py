"""Execution layer for lowered step graphs.

:func:`attach` analyzes a sealed :class:`StepGraph`, loads the process's
prelude library, and installs a :class:`LoweredPlan` on the graph.  It
compiles nothing of its own: every native unit is a kernel-table entry,
and the prelude holds them all.  The plan owns:

- a flat list of *items* — closures that replace the replay
  interpreter's record loop.  Kernel units run the forward runner their
  kernel-table entry builds; host runs execute the interpreter's own
  loop over their records.
- the backward swaps: a copy of the graph's walk with selected entries
  replaced by closures of identical ``(ctx, grad) -> tuple`` semantics
  (the graph's own walk is never modified).

Both are built per accumulation slot, on the slot's first replay, so
each unit's bindings see one layout of the graph's memory plan.

Every native call sits behind a guard built from the entry's operand
contract and bound to the unit's :class:`Binding`: a call whose
operands are all the objects the last admitted call held skips the
layout and relation clauses, and reads each array operand's data
pointer from the binding (``docs/codegen.md``, "Calling convention").
A guard miss — a clause fails — runs the original NumPy record for just
that unit and bumps ``lower_segment_fallbacks``; a backward one runs
the op's own ``backward`` — lowering never changes semantics, only
dispatch.  A fresh operand that conforms only rebinds: nothing counts.
The wrappers here (``_OP_ITEM`` / ``_HOST_ITEM`` forward,
:func:`make_backward`, and :func:`direct` for host callers outside any
graph) are the only place that happens — except for a caller that binds
its operands once and asks :func:`native` once, instead of guarding
every call (the serving plan, :mod:`repro.serving.plan`).
"""

from __future__ import annotations

import ctypes
import functools
import logging
from operator import is_
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.autograd.execution import current
from repro.autograd.function import Context
from repro.autograd.graph import (
    _CONST, _DYN, _INPUT, _LEAF, _NO_PLAN, _REC, _OpRecord, _tripped,
)
from repro.autograd.lower import kernels, toolchain
from repro.autograd.lower.kernels.base import I64, Build, Kernel, addr, compiled
from repro.autograd.lower.segmenter import Analysis, PyUnit, analyze
from repro.observability.metrics import registry

__all__ = [
    "Binding", "LoweredPlan", "attach", "bind", "binding", "current_binding",
    "direct", "load_prelude", "make_backward", "make_forward", "native",
]

logger = logging.getLogger(__name__)


class Binding:
    """Objects a native call reads, held by identity, and the arguments
    built from them — the one way this package binds a C call once and
    replays it.

    ``held`` is a sequence of objects; ``args`` is what its owner built
    from them (data pointers, a pointer table, a prebuilt argument
    tuple), valid exactly while :meth:`current` — each live object is the
    held one, compared in C (one ``map(is_)``, no list built).  Holding
    the object and not only its address is what makes the address safe
    to reuse: a held array cannot be freed, so no other array can take
    its memory while it is held.  And identity implies layout: nothing
    in this package assigns an array's ``shape`` or ``strides`` in place,
    so a held array has the layout it was bound with.

    Three owners use it: a lowered unit's guard and runner (its operands,
    and the arrays the runner acquires — :meth:`hold`), the native Adam
    step's pointer table, and the serving plan's module links."""

    __slots__ = ("held", "args")

    def __init__(self, held=(), args=None):
        self.held = held
        self.args = args

    def current(self, live) -> bool:
        """Every object of ``live`` is the held one at its position (the
        caller keeps the counts equal)."""
        return all(map(is_, live, self.held))

    def hold(self, k: int, a) -> int:
        """Hold array ``a`` at position ``k``; returns its data pointer,
        now ``args[k]``.  A runner reads ``args[k]`` while ``a is
        held[k]`` and calls this otherwise."""
        self.held[k] = a
        p = self.args[k] = addr(a)
        return p


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
    lib = toolchain.compile_and_load(kernels.PRELUDE, tag="prelude")
    # ``bind`` leaves its mark on the library: a symbol with argtypes.
    if lib is not None and lib.repro_set_blas.argtypes is None:
        bind(lib)
    return lib


def make_forward(entry, build: Build, descs=None) -> Callable:
    """``entry``'s forward runner behind its guard, the two sharing the
    build's operand binding (``descs``: the record's captured argument
    layouts, which ``pin``/``shape`` clauses compare with)."""
    return entry.contract.guard(entry.forward(build), descs, build.operands)


def make_backward(entry, build: Build, orig: Callable) -> Callable:
    """The closure that replaces ``orig`` (an op's ``backward``) with
    ``entry``'s: guard the live ``(grad, *ctx.saved)``, run, and fall
    back to ``orig`` when either declines."""
    descs = entry.bwd_descs(build.rec) if entry.bwd_descs else None
    call = entry.bwd_guard.guard(entry.backward(build), descs, build.operands)

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
    if not res:
        if res is None:
            count()
        fallback(values, inputs)
        return
    if guard and not host_equal(res[0], expected):
        raise _tripped(name, expected, res[0])
    values[{i}] = (None, res[0])
"""


def _expression(spec, env: dict, name: str) -> str:
    """The source of what ``StepGraph._resolve`` evaluates for ``spec``
    (a leaf or a constant bound in ``env`` under ``name``), unrolled:
    a dynamic value's path becomes its attribute and index chain."""
    tag = spec[0]
    if tag == _REC:
        return f"values[{spec[1]}][1]"
    if tag == _INPUT:
        return f"inputs[{spec[1]!r}]"
    if tag == _LEAF:
        env[name] = spec[1]
        return f"{name}.data"
    if tag == _CONST:
        env[name] = spec[1]
        return name
    if tag == _DYN:
        expr = f"values[{spec[1]}][1]"
        for kind, key in spec[2]:
            expr += f".{key}" if kind == "a" else f"[{key!r}]"
        return expr
    parts = (_expression(s, env, f"{name}_{j}") for j, s in enumerate(spec[1]))
    return "(" + "".join(f"{p}, " for p in parts) + ")"


class LoweredPlan:
    """A compiled execution schedule swapped into ``StepGraph.replay``.

    Its units are bound per accumulation slot: each slot replays its own
    layout of the graph's memory plan, so a unit's operands and outputs
    are the same objects from one replay of a slot to the next — not
    from one slot to the other.  A slot's items and backward walk are
    built on its first replay (:meth:`bound`), each unit with its own
    bindings."""

    def __init__(self, graph, lib, analysis: Analysis):
        self._graph = graph
        self._lib = lib
        self._analysis = analysis
        self._nrec = len(graph.records)
        self.records_total = analysis.total
        self.records_lowered = len(analysis.lowered)
        self.records_native = len(analysis.native)
        self._fallback_counter = registry().counter("lower_segment_fallbacks")
        # Shared int64 scratch for the scatter kernels, grown on demand;
        # replays are single-threaded so one block serves every unit.
        self._iscr = np.empty(256, I64)
        #: slot -> (forward (unit, item) pairs, backward walk entries,
        #: every unit's Build).
        self._slots: Dict[int, tuple] = {}

    def bound(self, slot: int) -> tuple:
        """``slot``'s ``(items, backward walk entries, builds)``, built
        on first use: the graph's walk with the selected entries swapped
        for native closures of identical ``(ctx, grad) -> tuple``
        semantics.  An item is ``(unit, item)``: the record index the
        memory plan's clock reads while it runs."""
        plan = self._slots.get(slot)
        if plan is None:
            builds: list = []
            items = [
                (unit.indices[0], self._records_item(unit.indices))
                if isinstance(unit, PyUnit)
                else (unit.index, self._kernel_item(unit, builds))
                for unit in self._analysis.units
            ]
            plan = self._slots[slot] = (items, self._backward_plan(builds), builds)
        return plan

    def unhold(self, slot: int) -> None:
        """Let go of the arrays ``slot``'s units hold from its last
        replay; each binds afresh on its next call."""
        plan = self._slots.get(slot)
        for build in plan[2] if plan is not None else ():
            build.unhold()

    # -- forward ---------------------------------------------------------
    def run_forward(self, inputs, slot: int = 0) -> list:
        values: List[Optional[tuple]] = [None] * self._nrec
        mark = current().arena or _NO_PLAN
        for unit, item in self.bound(slot)[0]:
            mark.unit = unit
            item(values, inputs)
        return values

    def bwd_plan(self, slot: int = 0) -> list:
        """The backward walk entries :func:`run_walk` runs for ``slot``."""
        return self.bound(slot)[1]

    def detach(self) -> None:
        """Drop every slot's bindings (and with them what they hold)."""
        self._slots.clear()

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

    # -- kernel units ----------------------------------------------------
    def _kernel_item(self, unit, builds: list) -> Callable:
        """One record replaced by its entry's guarded forward runner:
        ``_OP_ITEM`` / ``_HOST_ITEM`` with the record's arguments
        unrolled, so the per-call path is one flat function over
        pre-bound names."""
        graph, i = self._graph, unit.index
        rec = graph.records[i]
        descs = getattr(rec, "descs", None)
        build = Build(rec, self._lib, self._iscratch)
        builds.append(build)
        env = {
            "call": make_forward(unit.entry, build, descs[1] if descs else None),
            "count": self._fallback_counter.inc,
            "fallback": self._records_item((i,)),
            "Context": Context,
        }
        args = [_expression(spec, env, f"arg{k}") for k, spec in enumerate(rec.specs)]
        source = _OP_ITEM
        if type(rec) is not _OpRecord:
            source = _HOST_ITEM
            env.update(
                guard=rec.guard, expected=rec.expected, name=rec.fn.__name__,
                host_equal=graph.same, _tripped=_tripped,
            )
        exec(compiled(source.format(i=i, args=", ".join(args))), env)
        return env["item"]

    # -- backward swaps --------------------------------------------------
    def _backward_plan(self, builds: list) -> list:
        graph = self._graph
        swaps = self._analysis.bwd
        bwd_plan = list(graph._bwd_plan)
        for pos, entry in enumerate(bwd_plan):
            kind, slot, ref, orig, targets = entry
            swap = swaps.get(ref) if kind == 0 else None
            if swap is None:
                continue
            build = Build(graph.records[ref], self._lib, self._iscratch, targets)
            builds.append(build)
            bwd_plan[pos] = (
                kind, slot, ref, make_backward(swap[1], build, orig), targets
            )
        return bwd_plan


# ----------------------------------------------------------------------
# The direct-call face: an entry on plain arrays, outside any graph
# ----------------------------------------------------------------------
#: ``entry -> (guarded runner, reference, library)``, bound on the
#: entry's first direct call; the library is ``None`` when the entry is
#: pinned to its reference.
_direct: Dict[Kernel, tuple] = {}
_DIRECT_CALLS = registry().counter("lower_direct_calls")


def direct(entry: Kernel) -> Callable:
    """``entry`` as a plain function of its operands, for host callers
    outside any graph: the runner's result (``lower_direct_calls``
    counts it), or the reference's when the contract's guard misses or
    the runner declines — those operands are planned to run there, so
    nothing counts a fallback.  The first call binds the entry
    (:func:`_bind_direct`)."""

    def call(*ops):
        guarded, reference, _ = _direct.get(entry) or _bind_direct(entry)
        res = guarded(*ops)
        if res:
            _DIRECT_CALLS.value += 1
            return res[0]
        return reference(*ops)

    return call


def binding(entry: Kernel) -> tuple:
    """``entry``'s direct binding ``(guarded runner, reference, library)``,
    bound on first use like a first direct call (counting nothing).  A
    caller that keeps what it bound checks it still is the entry's
    (:data:`current_binding`): a rebind replaces the object."""
    return _direct.get(entry) or _bind_direct(entry)


#: ``current_binding(entry)``: the entry's binding now, ``None`` before
#: its first call.
current_binding = _direct.get


def native(entry: Kernel, *ops):
    """The prelude library ``entry`` runs ``ops`` on, or ``None`` when
    the entry is pinned to its reference or its contract does not admit
    ``ops``.  For a caller that binds operands once and then calls the
    C itself: these are the clauses :func:`direct` checks on every call,
    checked here once."""
    lib = binding(entry)[2]
    return lib if lib is not None and _admits(entry)(*ops) else None


@functools.lru_cache(maxsize=None)
def _admits(entry: Kernel) -> Callable:
    """``entry``'s contract as a predicate on its operands: its guard
    around a runner that only says yes."""
    return entry.contract.guard(lambda *ops: True)


def _bind_direct(entry: Kernel) -> tuple:
    """Build ``entry``'s runner on the process's one prelude and hold it
    to the reference, bit for bit, on the entry's check draws.  With no
    prelude (the toolchain has warned) or after a mismatch (one warning
    here), the entry is pinned to its reference and every call counts
    ``lower_toolchain_fallbacks`` / ``lower_segment_fallbacks``."""
    reference = kernels.reference(entry)
    lib = load_prelude()
    if lib is None:
        guarded = _unavailable(registry().counter("lower_toolchain_fallbacks"))
    else:
        run = entry.forward(Build(None, lib, functools.partial(np.empty, dtype=I64)))
        if _passes_check(entry, run, reference):
            guarded = entry.contract.guard(run)
        else:
            logger.warning(
                "kernel %s failed its bitwise check against %s; its calls "
                "stay on the reference", entry.name,
                kernels.replaced(entry).__name__,
            )
            guarded = _unavailable(registry().counter("lower_segment_fallbacks"))
            lib = None
    _direct[entry] = guarded, reference, lib
    return _direct[entry]


def _unavailable(counter) -> Callable:
    def run(*ops):
        counter.value += 1

    return run


def _passes_check(entry: Kernel, run: Callable, reference: Callable) -> bool:
    """``run`` equals ``reference`` bit for bit on ``entry``'s check
    draws.  The draws are not work the process asked for, so every
    registry counter reads afterwards what it read before."""
    reg = registry()
    before = reg.snapshot()["counters"]
    try:
        for args in entry.checks(np.random.default_rng(0)):
            got, want = run(*args), reference(*args)
            if not (
                got and got[0].dtype == want.dtype and got[0].shape == want.shape
                and got[0].tobytes() == want.tobytes()
            ):
                return False
        return True
    finally:
        for name in reg.snapshot()["counters"]:
            reg.counter(name).value = before.get(name, 0)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def attach(graph) -> Optional[LoweredPlan]:
    """Lower ``graph`` to native code and install the plan on it.

    Returns the installed :class:`LoweredPlan`, or ``None`` when the
    prelude is unavailable (no toolchain, or its one compile failed) —
    in which case the graph keeps replaying on the pure-NumPy path and
    ``lower_toolchain_fallbacks`` is bumped.
    """
    reg = registry()
    analysis = analyze(graph)
    lib = load_prelude()
    if lib is None:
        reg.counter("lower_toolchain_fallbacks").inc()
        return None
    plan = LoweredPlan(graph, lib, analysis)
    graph.attach_lowered(plan)
    reg.counter("graph_lowered").inc()
    return plan
