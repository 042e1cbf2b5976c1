"""Captured step graphs: record the tape once, replay a compiled schedule.

PR 3 removed steady-state allocations, leaving the training step
Python-dispatch-bound: every step re-runs the ``nn.Module`` call chains,
re-records ~200 tape nodes through :meth:`Function.apply`, re-sorts the
tape, and re-juggles the gradient dict — for a graph that is
structurally identical step after step.  This module is the CUDA-Graphs
/ TinyJit analog for the NumPy substrate: execute one micro batch
eagerly under a :class:`CaptureSession`, and every subsequent micro
batch with a matching :class:`StepGraph` signature replays a flat,
topologically-ordered schedule of pre-resolved op records — no module
traversal, no ``apply``, no Tensor/Node construction, no topo sort.

Record kinds
============

**Op records** are appended by the hook in :meth:`Function.apply`: the
``Function`` subclass, pre-resolved argument specs, and frozen kwargs.
At replay, ``fn.forward`` is called directly on raw arrays.  Because the
same ``forward`` bodies run (arena ``out=`` staging and all), replay is
bit-identical to eager by construction.

**Host records** are data-dependent computations that live *outside*
the tape — routing index selection, permutation-plan and topology
construction, jitter noise draws.  Module code routes them through
:func:`host`, which is a plain passthrough outside capture.  During
capture the callable and its argument specs are recorded and the result
objects are walked into the dynamic-value registry (so downstream op
args that reference e.g. ``plan.gather_indices`` resolve to *this
step's* plan, not a frozen copy).  At replay, host records re-execute
in recorded order — RNG draws advance identically, and a shifted
routing distribution flows through the schedule naturally because the
sparse kernels are shape-polymorphic in their topology argument.

A host record's result reaches later records by identity: arrays,
tuples and dataclass fields register as dynamic values, but a plain
``int`` (or any other untracked scalar) passed on to a later record or
a reshape is frozen at its captured value.  So everything routing
decides — a capacity, a buffer extent — is computed *inside* the host
record that consumes it, and extents a routing moves are written as
``-1`` in reshapes.  A host record with ``guard`` set is for
data-dependent *control flow* only (the router's non-finite fallback
branch): it compares its replayed result against the captured one and
raises :class:`GraphInvalidated` on mismatch; in a graph that exchanges
with peers (:func:`exchanges_with`) the whole group decides, so either
every rank recaptures or none does.  Replay snapshots every
RNG stream the graph touches before running, and restores them when a
guard trips, so the transparent eager fallback consumes exactly the
draws a pure-eager step would have — fallbacks stay bit-identical.

Argument resolution
===================

Each positional argument of a recorded call is classified once, at
capture:

- output of an earlier record            -> resolved from the replay value table
- leaf Tensor (parameter)                -> re-reads ``tensor.data`` every replay,
                                            so in-place optimizer updates *and*
                                            checkpoint loads are picked up
- registered dynamic value (host output
  or a named graph input such as the
  micro-batch arrays)                    -> extracted from the replaying record's
                                            fresh result by attribute/index path
- anything else                          -> frozen constant (shapes, masks,
                                            modules, RNG generators, dtypes)

The backward pass is precompiled at :meth:`CaptureSession.finalize`
from the tape's topological order into the slot-addressed entries
:meth:`Tensor.backward` compiles for itself on every call
(:func:`repro.autograd.tensor.walk_entries`), and replay runs them
through the same loop (:func:`repro.autograd.tensor.run_walk`) — the
accumulation arithmetic, the arena release discipline and the
owned-buffer in-place adds exist once, so gradients are bit-identical
too.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.autograd.execution import current, mine
from repro.autograd.function import Context
from repro.autograd.memplan import END, MemoryPlan
from repro.autograd.tensor import Tensor, _coerce_data, run_walk, walk_entries

__all__ = [
    "CaptureSession",
    "GraphInvalidated",
    "StepGraph",
    "exchanges_with",
    "host",
]


class GraphInvalidated(RuntimeError):
    """A replayed guard diverged from its captured value; the caller must
    discard the :class:`StepGraph`, fall back to eager, and recapture."""


class _Unplanned:
    """Where a replay outside ``steady_state()`` announces its units:
    nothing reads them."""

    __slots__ = ("unit",)


_NO_PLAN = _Unplanned()

# Argument-spec tags (plain ints: the replay resolver is the hot loop).
_REC = 0      # (tag, record_index)                 -> values[record_index]
_LEAF = 1     # (tag, tensor)                       -> tensor.data  (re-read)
_CONST = 2    # (tag, value)                        -> value (frozen)
_DYN = 3      # (tag, record_index, path)           -> walk path from values[i]
_INPUT = 4    # (tag, name)                         -> inputs[name]
_TUPLE = 5    # (tag, (spec, ...))                  -> tuple of resolved specs


def _describe(x) -> Optional[tuple]:
    """Stable per-array descriptor: ``(dtype str, shape, strides)``.

    Captured once per record argument/output so a lowering pass (or any
    other consumer of the schedule) can reason about layouts without
    re-deriving them from live arrays — which may have been recycled by
    the arena by the time the pass runs."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.strides)
    return None


class _OpRecord:
    """One :meth:`Function.apply` call: kernel class + resolved args.

    ``descs`` holds ``(out_descriptor, (arg_descriptor, ...))`` where each
    descriptor is ``(dtype str, shape, strides)`` for ndarray-backed
    positions and ``None`` otherwise — the stable layout metadata the
    native-code lowering keys its segment templates on."""

    __slots__ = ("fn", "specs", "kwargs", "requires_grad", "descs")

    def __init__(self, fn, specs, kwargs, requires_grad, descs=None):
        self.fn = fn
        self.specs = specs
        self.kwargs = kwargs
        self.requires_grad = requires_grad
        self.descs = descs


class _HostRecord:
    """One :func:`host` call: non-tape callable re-executed at replay."""

    __slots__ = ("fn", "specs", "guard", "expected")

    def __init__(self, fn, specs, guard, expected):
        self.fn = fn
        self.specs = specs
        self.guard = guard
        self.expected = expected


def _host_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and bool(np.array_equal(a, b))
        )
    return a == b


def _agreeing(group) -> Callable:
    """:func:`_host_equal` decided over ``group``: one tiny all-reduce of
    the flag, so a guard that trips on any rank trips on every rank."""

    def same(a, b) -> bool:
        off = not _host_equal(a, b)
        return not group.all_reduce(np.array([off], np.int64))[0]

    return same


def _tripped(name: str, expected, res) -> GraphInvalidated:
    where = " on a peer" if _host_equal(res, expected) else ""
    return GraphInvalidated(
        f"guard {name} diverged from capture{where}: {expected!r} -> {res!r}"
    )


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def exchanges_with(group) -> None:
    """Declare that the micro batch being captured exchanges data with
    ``group``'s ranks (an expert-parallel layer): its graph decides every
    replayed guard over the group.  A no-op outside capture."""
    s = current().capture
    if s is not None:
        s.group = group


def host(fn: Callable, *args: Any, guard: bool = False):
    """Run (and, under capture, record) a data-dependent host computation.

    Outside a capture this is ``fn(*args)`` — one read of the thread's
    record and an is-None test on the eager path.  Under capture the call
    is recorded for re-execution at replay; its result objects (arrays,
    plans, topologies, tuples of them) register as dynamic values so
    later recorded calls resolve them per step.  With ``guard`` set the
    replayed result must equal the captured one or the replay raises
    :class:`GraphInvalidated` (use for values that select control flow;
    a value that sizes something belongs inside the record that uses it).
    """
    s = current().capture
    if s is None:
        return fn(*args)
    return s.record_host(fn, args, guard)


class CaptureSession:
    """Records one eager micro batch into a :class:`StepGraph`.

    Use :meth:`begin` / :meth:`finalize` (or ``abort``) around the eager
    execution; :meth:`Function.apply` feeds it the ops of the thread
    that called ``begin``, and no other thread's.
    """

    def __init__(self, signature: tuple, inputs: Dict[str, np.ndarray]):
        self.signature = signature
        self.records: List[Any] = []
        # id(Tensor) -> producing record index (op outputs).
        self._tensor_ids: Dict[int, int] = {}
        # id(object) -> dynamic-value spec (host outputs, inputs, raw
        # op-output arrays).  Later registrations overwrite earlier ones,
        # which is the correct temporal binding when the arena re-issues
        # a view object it released earlier in the same step.
        self._dyn: Dict[int, tuple] = {}
        # Strong refs keep every registered id stable for the session.
        self._keepalive: List[Any] = []
        self._gens: List[np.random.Generator] = []
        self.group = None  # what the records exchange with (exchanges_with)
        for name, arr in inputs.items():
            self._dyn[id(arr)] = (_INPUT, name)
            self._keepalive.append(arr)

    # -- lifecycle -------------------------------------------------------
    def begin(self) -> "CaptureSession":
        ex = mine()
        if ex.capture is not None:
            raise RuntimeError("a CaptureSession is already active")
        ex.capture = self
        return self

    def abort(self) -> None:
        ex = current()
        if ex.capture is self:
            ex.capture = None

    # -- recording -------------------------------------------------------
    def _note_generator(self, v) -> None:
        if isinstance(v, np.random.Generator) and v not in self._gens:
            self._gens.append(v)

    def _spec_for(self, x) -> tuple:
        if isinstance(x, Tensor):
            idx = self._tensor_ids.get(id(x))
            if idx is not None:
                return (_REC, idx)
            d = self._dyn.get(id(x.data))
            if d is not None:
                return d
            if x._node is not None:
                raise RuntimeError(
                    "captured op consumes a tape tensor produced outside "
                    "the capture session"
                )
            # Leaf: parameters and persistent wrappers.  ``.data`` is
            # re-read per replay so in-place updates and checkpoint
            # loads are honored.
            self._keepalive.append(x)
            return (_LEAF, x)
        if isinstance(x, np.ndarray):
            d = self._dyn.get(id(x))
            if d is not None:
                return d
            self._keepalive.append(x)
            return (_CONST, x)
        if type(x) is tuple:
            specs = tuple(self._spec_for(e) for e in x)
            if all(s[0] == _CONST for s in specs):
                return (_CONST, x)
            return (_TUPLE, specs)
        d = self._dyn.get(id(x))
        if d is not None:
            return d
        self._note_generator(x)
        self._keepalive.append(x)
        return (_CONST, x)

    def record_op(self, fn, args, kwargs, out: Tensor) -> None:
        """Hook target for :meth:`Function.apply` (capture only)."""
        specs = tuple(self._spec_for(a) for a in args)
        if kwargs:
            for v in kwargs.values():
                self._note_generator(v)
        idx = len(self.records)
        descs = (
            _describe(out.data),
            tuple(
                _describe(a.data) if isinstance(a, Tensor) else _describe(a)
                for a in args
            ),
        )
        self.records.append(
            _OpRecord(
                fn, specs, dict(kwargs) if kwargs else None, out.requires_grad, descs
            )
        )
        self._tensor_ids[id(out)] = idx
        self._dyn[id(out.data)] = (_REC, idx)
        self._keepalive.append(out)

    def record_host(self, fn, args, guard):
        specs = tuple(self._spec_for(a) for a in args)
        idx = len(self.records)
        result = fn(*args)
        self.records.append(
            _HostRecord(fn, specs, guard, result if guard else None)
        )
        self._keepalive.append(result)
        self._register(result, idx, ())
        return result

    def _register(self, obj, idx: int, path: tuple) -> None:
        """Walk a host result, registering every array / container so
        later arguments referencing any part of it resolve dynamically."""
        if isinstance(obj, np.ndarray):
            self._dyn[id(obj)] = (_DYN, idx, path) if path else (_REC, idx)
            return
        if isinstance(obj, (tuple, list)):
            if path or type(obj) is not tuple:
                self._dyn[id(obj)] = (_DYN, idx, path) if path else (_REC, idx)
            for k, e in enumerate(obj):
                self._register(e, idx, path + (("i", k),))
            return
        if hasattr(obj, "__dataclass_fields__"):
            self._dyn[id(obj)] = (_DYN, idx, path) if path else (_REC, idx)
            for name in obj.__dataclass_fields__:
                v = getattr(obj, name)
                if isinstance(v, (np.ndarray, tuple, list)) or hasattr(
                    v, "__dataclass_fields__"
                ):
                    self._register(v, idx, path + (("a", name),))

    # -- finalize --------------------------------------------------------
    def finalize(self, lm: Tensor, root: Tensor) -> "StepGraph":
        """Compile the backward schedule and seal the graph.

        ``root`` is the tensor whose (scalar) backward the step runs —
        capture must have called ``root.backward(retain_graph=True)``
        first, so the tape is still walkable here.  ``lm`` is the
        tensor whose value :meth:`StepGraph.replay` returns.
        """
        self.abort()
        root_idx = self._tensor_ids.get(id(root))
        lm_idx = self._tensor_ids.get(id(lm))
        if root_idx is None or lm_idx is None:
            raise RuntimeError("finalize() tensors were not captured")

        def record_of(t: Tensor) -> int:
            ridx = self._tensor_ids.get(id(t))
            if ridx is None:
                raise RuntimeError("tape node produced outside the capture session")
            return ridx

        order = root._topological_order()
        graph = StepGraph(
            signature=self.signature,
            records=self.records,
            bwd=walk_entries(order, record_of),
            num_slots=len(order),
            root_idx=root_idx,
            lm_idx=lm_idx,
            gens=self._gens,
            group=self.group,
        )
        # Drop capture-time activations: the schedule holds classes,
        # specs, leaf refs, and constants — not the step's tensors.  The
        # tape is cut too, so a captured tensor a module keeps (a
        # router's last result) holds its own array and no saved context.
        for t in self._keepalive:
            if type(t) is Tensor:
                t._node = None
        self._keepalive = []
        self._tensor_ids = {}
        self._dyn = {}
        from repro.observability.metrics import registry

        registry().counter("graph_captures").inc()
        return graph


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
class StepGraph:
    """A sealed, replayable schedule for one micro-batch step."""

    __slots__ = (
        "signature",
        "records",
        "num_slots",
        "root_idx",
        "lm_idx",
        "gens",
        "same",
        "replays",
        "_plan",
        "_bwd_plan",
        "memory",
        "_readers",
        "_lowered",
        "_inputs",
    )

    def __init__(
        self, signature, records, bwd, num_slots, root_idx, lm_idx, gens, group=None
    ):
        self.signature = signature
        self.records = records
        self.num_slots = num_slots
        self.root_idx = root_idx
        self.lm_idx = lm_idx
        self.gens = gens
        #: Whether a guarded host result holds its captured value: the
        #: group's answer when the records exchange with peers (a rank
        #: that recaptured alone would pair its exchanges wrongly).
        self.same = _host_equal if group is None else _agreeing(group)
        self.replays = 0
        #: The graph's memory plan (:mod:`repro.autograd.memplan`): one
        #: layout per accumulation slot — the first micro batch of a step
        #: makes the leaf-gradient buffers that later ones accumulate
        #: into in place, so their request sequences differ — over one
        #: activation region they share.  Each slot's layout is recorded
        #: on its first replay.
        self.memory = MemoryPlan()
        #: record index -> the units that read its value or context.
        self._readers: Optional[Dict[int, tuple]] = None
        #: Native lowering plan (repro.autograd.lower), or None for the
        #: pure-NumPy replay path.
        self._lowered = None
        #: The graph's own input buffers (``name -> array``): a replay
        #: copies its inputs in, so every replay's records read the same
        #: arrays — what a lowered unit's bindings hold.
        self._inputs: Dict[str, np.ndarray] = {}
        self._plan = [self._compile_record(r) for r in records]
        #: The backward walk's entries (``tensor.walk_entries``; ``ref`` is
        #: the record index).  A lowered plan walks a copy with some
        #: swapped for native ones.
        self._bwd_plan = bwd

    @staticmethod
    def _compile_record(rec) -> tuple:
        """Pre-split a record's specs into a constant argument template
        plus patches for the dynamic positions.

        Constants are filled into ``static`` once; at replay only the
        patched positions are re-resolved (most records are all-constant
        or have one or two dynamic arguments).  ``static`` is used
        as-is — without copying — when there are no patches.
        """
        static: List[Any] = []
        patches: List[tuple] = []
        for pos, s in enumerate(rec.specs):
            if s[0] == _CONST:
                static.append(s[1])
            else:
                static.append(None)
                patches.append((pos, s[0], s[1], s))
        if type(rec) is _OpRecord:
            return (True, rec.fn.forward, rec.kwargs, static, tuple(patches), rec)
        return (False, rec.fn, None, static, tuple(patches), rec)

    # -- native lowering -------------------------------------------------
    def attach_lowered(self, plan) -> None:
        """Install a :class:`repro.autograd.lower.LoweredPlan`.

        The lowered path issues its own arena request sequence (it skips
        staging temporaries the C kernels fuse away), so any layouts
        recorded under the NumPy replay are dropped and each slot
        records again on its next replay.
        """
        if self._lowered is not None:
            self.detach_lowered()
        self._lowered = plan
        self.memory.forget()

    def detach_lowered(self) -> None:
        """Remove the lowered plan: replays run the NumPy records and
        backward entries again."""
        plan = self._lowered
        if plan is not None:
            self._lowered = None
            plan.detach()
            self.memory.forget()

    @property
    def num_records(self) -> int:
        return len(self.records)

    def replay(self, inputs: Dict[str, np.ndarray], slot: int = 0) -> float:
        """Execute the schedule; returns ``float(lm)`` with gradients
        accumulated into the leaf parameters, bit-identical to eager.

        ``slot`` selects the layout of the graph's memory plan (0 for the
        first micro batch of a step, 1 for accumulation micro batches):
        the first replay of a slot runs on the pool and records it,
        later replays are served every buffer at its planned offset.
        Buffer placement does not affect the arithmetic, so recorded,
        planned and pool-served replays are bit-identical.

        Raises :class:`GraphInvalidated` when a guard diverges; every
        RNG stream the graph draws from is restored first, so the eager
        fallback re-consumes the identical draws.
        """
        from repro.utils.rng import get_global_state, set_global_state

        inputs = self._own(inputs)
        g_state = get_global_state()
        states = [(g, g.bit_generator.state) for g in self.gens]

        def run() -> list:
            if self._lowered is not None:
                values = self._lowered.run_forward(inputs, slot)
            else:
                values = self._forward(inputs)
            self._backward(values, slot)
            return values

        try:
            loss = self.memory.run(slot, run, self)
        except GraphInvalidated:
            set_global_state(g_state)
            for g, s in states:
                g.bit_generator.state = s
            raise
        self.replays += 1
        from repro.observability.metrics import registry

        registry().counter("graph_replays").inc()
        return loss

    def loss(self, values: list) -> float:
        """A replay's result: ``float(lm)`` from its value table."""
        return float(values[self.lm_idx][1])

    # -- what the memory plan reads --------------------------------------
    def leaves(self) -> list:
        """The tensors the backward walk delivers gradients to."""
        return [ref for kind, _slot, ref, _fn, _targets in self._bwd_plan if kind]

    def readers(self) -> Dict[int, tuple]:
        """Record index -> the units that read its value or its context:
        later records whose arguments name it, the walk entry (``~pos``)
        that runs its backward, and ``END`` for the loss and the root."""
        if self._readers is None:
            readers: Dict[int, set] = {}

            def note(spec, unit) -> None:
                tag = spec[0]
                if tag in (_REC, _DYN):
                    readers.setdefault(spec[1], set()).add(unit)
                elif tag == _TUPLE:
                    for s in spec[1]:
                        note(s, unit)

            for j, rec in enumerate(self.records):
                for spec in rec.specs:
                    note(spec, j)
            for pos, (kind, _slot, ref, _fn, _targets) in enumerate(self._bwd_plan):
                if not kind:
                    readers.setdefault(ref, set()).add(~pos)
            for i in (self.lm_idx, self.root_idx):
                readers.setdefault(i, set()).add(END)
            self._readers = {i: tuple(u) for i, u in readers.items()}
        return self._readers

    def unhold(self, slot: int) -> None:
        """Let go of what the lowered units of ``slot`` hold from the
        last replay (it recorded a layout: those arrays are dead)."""
        if self._lowered is not None:
            self._lowered.unhold(slot)

    def _own(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """``inputs`` copied into the graph's buffers — the serving plan
        takes its ids the same way.  A buffer is made (again) when an
        input's shape or dtype is not the one it holds."""
        owned = self._inputs
        for name, a in inputs.items():
            mine = owned.get(name)
            if mine is None or mine.shape != a.shape or mine.dtype != a.dtype:
                mine = owned[name] = np.empty_like(a)
            np.copyto(mine, a)
        return owned

    # -- forward ---------------------------------------------------------
    def _resolve(self, s, values, inputs):
        tag = s[0]
        if tag == _REC:
            return values[s[1]][1]
        if tag == _LEAF:
            return s[1].data
        if tag == _CONST:
            return s[1]
        if tag == _DYN:
            v = values[s[1]][1]
            for kind, key in s[2]:
                v = getattr(v, key) if kind == "a" else v[key]
            return v
        if tag == _INPUT:
            return inputs[s[1]]
        return tuple(self._resolve(e, values, inputs) for e in s[1])

    def _forward(self, inputs) -> list:
        """Run every record in order; returns ``[(ctx, value), ...]``."""
        values: List[Optional[tuple]] = [None] * len(self.records)
        self._run_records(range(len(self.records)), values, inputs)
        return values

    def _run_records(self, indices, values, inputs) -> None:
        """The interpreter's record loop over ``indices`` (ascending):
        all of them for a plain replay; the host runs and the
        guard-miss fallbacks of a lowered plan."""
        plan = self._plan
        resolve = self._resolve
        same = self.same
        ndarray = np.ndarray
        mark = current().arena or _NO_PLAN
        for i in indices:
            mark.unit = i
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
                    # Full reductions return NumPy scalars; match the
                    # coercing Tensor(...) path of Function.apply.
                    out = _coerce_data(out)
                values[i] = (ctx, out)
            else:
                res = fn(*args)
                if rec.guard and not same(res, rec.expected):
                    raise _tripped(fn.__name__, rec.expected, res)
                values[i] = (None, res)

    # -- backward --------------------------------------------------------
    def _backward(self, values, slot: int = 0) -> None:
        """:func:`repro.autograd.tensor.run_walk` — :meth:`Tensor.backward`'s
        own loop — over the entries compiled at capture (or the lowered
        plan's copy of them for ``slot``), seeded with ones."""
        seed = np.ones_like(values[self.root_idx][1])
        lowered = self._lowered
        bwd = self._bwd_plan if lowered is None else lowered.bwd_plan(slot)
        run_walk(bwd, self.num_slots, seed, values)
