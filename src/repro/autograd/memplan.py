"""One memory plan per captured step graph: every buffer a replay asks
for, laid out by lifetime.

A compiled step graph replays the same schedule every micro batch, so
it asks for the same buffers in the same order, and each buffer is read
for the last time at the same point.  :class:`MemoryPlan` turns that
into one layout, built when a graph is first replayed:

- **Recording.**  The first replay of an accumulation slot runs on the
  thread's pool through a :class:`Tracer`, which notes every request
  (dtype, shape, the unit that issued it), every release, and the unit
  boundaries the replay loops announce (``alloc.unit = k``: a forward
  record's index, or ``~pos`` for the backward walk's entry ``pos``).
  A buffer dies at its last reader: the end of the unit that made it,
  a runner's own :func:`repro.autograd.arena.release`, the walk giving
  an interior gradient back, and — found by scanning each record's
  value and saved context for the arrays they hold, views mapped to
  their roots — the last forward record whose arguments name it and
  the backward entry whose ``ctx.saved`` holds it.
- **Layout.**  Each request gets an offset chosen from its lifetime
  (first fit among the buffers alive at the same time, placed largest
  first) in the
  *activation region*; a request still held by a leaf gradient
  when the replay ends outlives it, and goes to the *gradient region*.
  All slots share the activation region — it is dead whenever a replay
  ends — and the gradient region lives until the pool's next
  generation, like any leaf-gradient buffer (a slot whose region holds
  a leaf gradient records again rather than serve twice in one
  generation; one that holds only what a module keeps serves again).
  A request whose leading axis routing sizes — it names, as ``rows=``,
  the topology, plan or array that axis comes from, back to what the
  dispatch declared with :func:`routed` — is reserved at that extent's
  bound, so moving routing never outgrows it; every other request is
  planned at the size it asked for.
- **Serving.**  Later replays of the slot are served by a
  :class:`Layout`, by cursor: a request must come from the unit planned
  at its position, in the planned dtype, within the planned bytes.  A
  request that does not goes to the pool for the rest of that replay —
  the pool never hands out plan memory, so the served prefix and the
  rest cannot alias — counts once in ``memory_plan_misses``, and the
  slot records again on its next replay (keeping what was reserved as a
  floor).  The walk keeps no books under a plan: nothing is released,
  and a leaf adopts the gradient the recording's leaf adopted when it
  lies in the gradient region.

Eager steps never see a plan: the pool is their allocator, and the
reference allocates.
"""

from __future__ import annotations

import ctypes
from bisect import bisect_left
from math import prod
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.autograd.arena import WalkBuffers, root
from repro.autograd.execution import current
from repro.autograd.function import Context
from repro.autograd.tensor import Tensor

#: Every planned range starts on a cache line.
ALIGN = 64

#: A reader that runs after the replay's last unit (the loss, the seed).
END = None


def _trim(pool) -> None:
    """Drop the pool's free buffers, and hand the heap pages they held
    back to the OS (glibc keeps freed small chunks mapped otherwise), so
    the memory a recording used does not stay resident beside the
    regions that replace it."""
    pool.trim()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None


_MALLOC_TRIM = _malloc_trim()


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _aligned(nbytes: int) -> int:
    return max(ALIGN, -(-nbytes // ALIGN) * ALIGN)


def _region(nbytes: int) -> np.ndarray:
    """``nbytes`` of uninitialised memory starting on a cache line."""
    raw = np.empty(nbytes + ALIGN, np.uint8)
    skip = -_address(raw) % ALIGN
    return raw[skip : skip + nbytes]


def _arrays(obj, depth: int = 0) -> Iterator[np.ndarray]:
    """Every array ``obj`` holds: a record's value, a context's saved
    tuple, and the plans and topologies inside them (a plan's topology
    sits six levels below a record's value; the bound only stops a
    cycle)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth > 12:
        return
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _arrays(x, depth + 1)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _arrays(x, depth + 1)
    elif isinstance(obj, Context):
        yield from _arrays(obj.saved, depth + 1)
    elif isinstance(obj, Tensor):
        yield obj.data
    elif hasattr(obj, "__dataclass_fields__"):
        yield from _arrays(vars(obj), depth + 1)


def _first_fit(sizes: List[int], births: List[int], deaths: List[int], order) -> tuple:
    """Offsets for the requests of ``order`` (lifetimes ``[birth,
    death)``), placed in that order, each at the lowest offset no buffer
    alive at the same time covers.  Returns ``({request: offset}, total
    bytes)``."""
    placed: List[tuple] = []
    offsets: Dict[int, int] = {}
    total = 0
    for r in order:
        b, d, n = births[r], deaths[r], sizes[r]
        at = 0
        for lo, hi in sorted((lo, hi) for lo, hi, pb, pd in placed if pb < d and b < pd):
            if lo - at >= n:
                break
            at = max(at, hi)
        placed.append((at, at + n, b, d))
        offsets[r] = at
        total = max(total, at + n)
    return offsets, total


def _pack(sizes: List[int], births: List[int], deaths: List[int], which) -> tuple:
    """The tighter of two first-fit layouts of ``which``: largest
    first, and in the order the requests come.  Each wins somewhere:
    largest first packs every slot of the four bench shapes 3-10 %
    tighter (one ``small_decode`` slot ties), request order every slot
    of the small model ``tests/integration/test_buffer_plan_machine.py``
    trains, by 0.4-1.1 % (docs/performance.md)."""
    by_size = sorted(which, key=lambda r: (-sizes[r], births[r]))
    by_birth = sorted(which, key=lambda r: births[r])
    return min(
        (_first_fit(sizes, births, deaths, order) for order in (by_size, by_birth)),
        key=lambda layout: layout[1],
    )


class MemoryPlan:
    """The memory plan of one step graph: a :class:`Layout` per
    accumulation slot over one activation region all slots share, and a
    gradient region of each slot's own."""

    __slots__ = ("slots", "act")

    def __init__(self) -> None:
        self.slots: Dict[int, Layout] = {}
        #: The shared activation region, made when the first layout is
        #: recorded and made again when a new layout needs more.
        self.act: Optional[np.ndarray] = None

    def forget(self) -> None:
        """Drop every slot's layout: the next replay of each records."""
        self.slots.clear()

    def nbytes(self) -> int:
        """The activation bytes the slots' layouts need."""
        return max((l.act_bytes for l in self.slots.values()), default=0)

    def run(self, slot: int, run, graph) -> float:
        """``run()`` — one replay of ``graph``, returning its value table
        — served by ``slot``'s layout, or recording it; returns the
        replay's loss.  Outside ``steady_state()`` the replay allocates
        and nothing is planned.  An exception drops the slot's layout."""
        ex = current()
        pool = ex.arena
        if pool is None:
            return graph.loss(run())
        if pool is not ex.pool:
            raise RuntimeError("a memory plan is already recording or serving")
        layout = self.slots.pop(slot, None)
        if layout is not None and layout.valid:
            if layout.generation != pool.generation:
                return graph.loss(self._serve(slot, layout, run, pool))
            # Its gradient region still backs this generation's leaf
            # gradients (a slot replayed twice in one step): serving it
            # again would overwrite them.
            _miss()
        return self._record(slot, layout, run, pool, graph)

    def _serve(self, slot, layout, run, pool):
        self.slots[slot] = layout
        if pool._free_bytes:
            _trim(pool)  # what an eager step between replays left behind
        layout.start(pool)
        ex = current()
        ex.arena = layout
        try:
            values = run()
        except BaseException:
            del self.slots[slot]
            raise
        finally:
            ex.arena = pool
        if layout.left is not None or layout.cursor != len(layout.entries):
            layout.valid = False
            layout.off_plan = (
                pool.hits + pool.misses + pool.skipped - layout.left
                if layout.left is not None
                else 0
            )
            _miss()
        return values

    def _record(self, slot, prev, run, pool, graph):
        tracer = Tracer(pool)
        ex = current()
        ex.arena = tracer
        try:
            values = run()
        finally:
            ex.arena = pool
        loss = graph.loss(values)
        leaves = graph.leaves()
        layout = self.slots[slot] = tracer.layout(graph.readers(), values, leaves, prev)
        # What the recording held is dead but for its leaf gradients:
        # let it go, and make the regions in its place.
        del values
        tracer.keep.clear()
        pool.retire([t.grad for t in leaves])
        graph.unhold(slot)
        self._materialize(pool)
        # The leaf gradients move to where the slot's later replays put
        # them, so no step holds the pool's copy beside the region.
        for g in layout.take(tracer, leaves, pool.generation):
            pool.release(g)
        del tracer
        _trim(pool)
        return loss

    def _materialize(self, pool) -> None:
        """Make the regions the layouts need (where the present ones are
        too small) and every layout's views into them."""
        need = self.nbytes()
        fresh = [l for l in self.slots.values() if l.kept is None or l.kept.size < l.grad_bytes]
        if self.act is None or self.act.size < need or fresh:
            # Let the pool's free memory (and the regions replaced) go
            # first, so the new regions can take it.
            if self.act is None or self.act.size < need:
                self.act = None
            for layout in fresh:
                layout.kept = None
            _trim(pool)
            if self.act is None:
                self.act = _region(need)
            for layout in fresh:
                layout.kept = _region(layout.grad_bytes)
        for layout in self.slots.values():
            layout.place(self.act)


def _miss() -> None:
    from repro.observability.metrics import registry

    registry().counter("memory_plan_misses").inc()


def routed(obj, extent: int, cap: int) -> None:
    """Declare that routing decides ``extent`` — an array's leading
    extent, or one the buffers sized from a topology or dispatch plan
    take — and that it never exceeds ``cap``: a layout recording this
    replay reserves every request whose ``rows=`` leads back to ``obj``
    (:func:`repro.autograd.arena.empty`) at ``cap``.  Two extents of one
    object that happen to be equal take the larger bound.  A no-op
    unless a layout is recording."""
    alloc = current().arena
    if type(alloc) is Tracer:
        alloc.routed(obj, extent, cap)


def outlives(a: np.ndarray) -> None:
    """Declare that ``a`` is read after the replay that made it (module
    state a caller inspects after the step): a layout recording this
    replay keeps its buffer out of the shared activation region.  A
    no-op unless a layout is recording."""
    alloc = current().arena
    if type(alloc) is Tracer:
        alloc.outliving.append(a)


class Tracer:
    """The thread's allocator while a replay records its layout: the
    pool, with every request, release and unit boundary noted."""

    __slots__ = (
        "pool", "dtypes", "shapes", "segs", "marks", "released", "history",
        "keep", "caps", "seeds", "adopted", "outliving", "_unit",
    )

    def __init__(self, pool) -> None:
        self.pool = pool
        self.dtypes: list = []
        self.shapes: list = []
        #: Request -> index of the unit boundary it was issued after.
        self.segs: List[int] = []
        #: (unit, clock) at each unit's start; the clock counts requests.
        self.marks: List[tuple] = []
        #: Request -> clock of its (last) release.
        self.released: Dict[int, int] = {}
        #: id(root array) -> requests it served, in order.
        self.history: Dict[int, List[int]] = {}
        #: Every root served: ids stay unique while the recording runs.
        self.keep: list = []
        #: Request -> the bound of its routing-sized leading extent.
        self.caps: Dict[int, int] = {}
        #: What :func:`routed` declared: ``id(obj)``, or an array's
        #: ``(address, extent, row stride)``, -> {extent: bound}.
        self.seeds: Dict[object, Dict[int, int]] = {}
        #: id(leaf) -> whether the walk adopted its gradient.
        self.adopted: Dict[int, bool] = {}
        #: Arrays declared read after the replay (:func:`outlives`).
        self.outliving: list = []
        self._unit = None

    @property
    def unit(self):
        return self._unit

    @unit.setter
    def unit(self, u) -> None:
        self._unit = u
        self.marks.append((u, len(self.dtypes)))

    def acquire(self, shape, dtype, rows=None) -> np.ndarray:
        view = self.pool.acquire(shape, dtype)
        r = len(self.dtypes)
        self.dtypes.append(view.dtype)
        self.shapes.append(view.shape)
        self.segs.append(len(self.marks) - 1)
        base = root(view)
        self.history.setdefault(id(base), []).append(r)
        self.keep.append(base)
        if rows is not None and view.ndim:
            cap = self._cap(rows, view.shape, r)
            if cap is not None:
                self.caps[r] = cap
        return view

    def _cap(self, rows, shape, now: int) -> Optional[int]:
        """The bound of extent ``shape[0]`` when ``rows`` says it is
        routing-sized: a declared object or array, or an array an
        earlier request (before clock ``now``) served with a bound,
        viewed along that request's leading axis.  A tuple holds the
        operands of a broadcasting op: those of the result's rank."""
        extent = shape[0]
        if type(rows) is tuple:
            caps = [
                self._cap(x, shape, now)
                for x in rows
                if isinstance(x, np.ndarray) and x.ndim == len(shape)
            ]
            return max((c for c in caps if c is not None), default=None)
        if not isinstance(rows, np.ndarray):
            return self.seeds.get(id(rows), {}).get(extent)
        if not rows.ndim or rows.shape[0] != extent:
            return None
        at = _address(rows)
        declared = self.seeds.get((at, extent, rows.strides[0]))
        if declared is not None:
            return declared.get(extent)
        q = self._owner(rows, now)
        if q is None or q not in self.caps or at != _address(root(rows)):
            return None
        served = self.shapes[q]
        row = prod(served[1:]) * self.dtypes[q].itemsize
        if served[0] != extent or rows.strides[0] != row:
            return None
        return self.caps[q]

    def release(self, view: np.ndarray) -> bool:
        served = self.history.get(id(root(view)))
        if served is not None:
            self.released[served[-1]] = len(self.dtypes)
        return self.pool.release(view)

    def walk(self) -> "WalkBuffers":
        return _TracedWalk(self)

    def routed(self, obj, extent: int, cap: int) -> None:
        if isinstance(obj, np.ndarray):
            key = (_address(obj), extent, obj.strides[0])
        else:
            key = id(obj)
        self.keep.append(obj)  # ids stay unique while the recording runs
        caps = self.seeds.setdefault(key, {})
        caps[extent] = max(cap, caps.get(extent, 0))

    def _owner(self, a: np.ndarray, before: int) -> Optional[int]:
        """The request that served ``a``'s memory last before clock
        ``before``, if any did."""
        served = self.history.get(id(root(a)))
        if not served:
            return None
        k = bisect_left(served, before)
        return served[k - 1] if k else None

    def layout(self, readers: dict, values: list, leaves: list, prev) -> "Layout":
        """The recorded replay's layout.  ``readers[i]`` names the units
        that read record ``i``'s value or context (``END``: after the
        last unit); ``values`` is the replay's value table; ``leaves``
        the tensors its walk delivers gradients to."""
        n = len(self.dtypes)
        starts = [c for _, c in self.marks]
        seg_end = starts[1:] + [n]
        unit_end = {u: e for (u, _), e in zip(self.marks, seg_end)}
        deaths = []
        for r, s in enumerate(self.segs):
            d = self.released.get(r)
            if d is None:
                d = seg_end[s] if s >= 0 else n
            deaths.append(max(d, r + 1))
        for i, v in enumerate(values):
            if v is None:
                continue
            made = unit_end.get(i, n)
            last = max(
                (n if u is END else unit_end.get(u, n) for u in readers.get(i, ())),
                default=made,
            )
            for a in _arrays(v):
                r = self._owner(a, made)
                if r is not None and deaths[r] < last:
                    deaths[r] = last
        held, grads = set(), 0
        for k, a in enumerate(self.outliving + [t.grad for t in leaves]):
            r = None if a is None else self._owner(a, n)
            if r is not None:
                held.add(r)
                deaths[r] = n
                grads += k >= len(self.outliving)
        units = [self.marks[s][0] if s >= 0 else None for s in self.segs]
        sizes = []
        for r in range(n):
            shape, dt = self.shapes[r], self.dtypes[r]
            nbytes = prod(shape) * dt.itemsize
            cap = self.caps.get(r)
            if cap is not None and cap > shape[0]:
                nbytes = nbytes // shape[0] * cap
            if prev is not None and r < len(prev.entries):
                e = prev.entries[r]
                if e[0] == dt and e[3] == units[r]:
                    nbytes = max(nbytes, e[6])
            sizes.append(_aligned(nbytes))
        births = list(range(n))
        act, act_bytes = _pack(sizes, births, deaths, [r for r in range(n) if r not in held])
        grad, grad_bytes = {}, 0
        for r in sorted(held):
            grad[r] = grad_bytes
            grad_bytes += sizes[r]
        entries = [
            [
                self.dtypes[r], self.shapes[r], None, units[r],
                1 if r in held else 0, grad[r] if r in held else act[r], sizes[r], None,
            ]
            for r in range(n)
        ]
        return Layout(entries, deaths, self.adopted, act_bytes, grad_bytes, grads > 0)


class _TracedWalk(WalkBuffers):
    """The pool's walk bookkeeping, with its releases and adoptions
    noted by the recording :class:`Tracer`."""

    __slots__ = ("tracer",)

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(tracer.pool, tracer.release)
        self.tracer = tracer

    @property
    def unit(self):
        return self.tracer.unit

    @unit.setter
    def unit(self, u) -> None:
        self.tracer.unit = u

    def adopt(self, a: np.ndarray, leaf) -> bool:
        took = super().adopt(a, leaf)
        self.tracer.adopted[id(leaf)] = took
        return took


class Layout:
    """One slot's planned buffers, and its allocator while it serves a
    replay.

    ``entries[i]`` is request ``i``'s ``[dtype, shape, view, unit,
    region, offset, reserved bytes, views by shape]``: ``region`` 0 is
    the shared activation region, 1 the gradient region.  ``deaths[i]``
    is the clock (requests served) from which its range may hold
    another buffer."""

    __slots__ = (
        "entries", "deaths", "adopted", "act_bytes", "grad_bytes", "valid",
        "cursor", "unit", "left", "pool", "off_plan", "kept", "generation",
        "grad_root", "regions", "keeps_grads",
    )

    def __init__(self, entries, deaths, adopted, act_bytes, grad_bytes, keeps_grads) -> None:
        self.entries = entries
        self.deaths = deaths
        self.adopted = adopted
        self.act_bytes = act_bytes
        self.grad_bytes = grad_bytes
        #: Whether a leaf gradient lies in the gradient region (rather
        #: than only arrays a module keeps, which a later replay may
        #: overwrite as eager would replace them).
        self.keeps_grads = keeps_grads
        self.valid = True
        self.cursor = 0
        self.unit = None
        #: The pool's request count when a replay left the plan, or None.
        self.left: Optional[int] = None
        self.pool = None
        #: Requests the last replay sent to the pool after leaving.
        self.off_plan = 0
        #: The slot's gradient region: what outlives its replays.
        self.kept: Optional[np.ndarray] = None
        #: The pool generation whose gradients the region last took.
        self.generation: Optional[int] = None
        self.grad_root = None
        self.regions: tuple = (None, None)

    def place(self, act: np.ndarray) -> None:
        """Every entry's view into ``act`` or the slot's gradient region."""
        regions = self.regions = act, self.kept
        self.grad_root = root(self.kept) if self.kept is not None else None
        for e in self.entries:
            e[2] = regions[e[4]][e[5] : e[5] + prod(e[1]) * e[0].itemsize].view(
                e[0]
            ).reshape(e[1])
            e[7] = {e[1]: e[2]}

    def take(self, tracer: Tracer, leaves: list, generation: int) -> list:
        """Copy each leaf gradient the recording (``tracer``) left in the
        pool into its planned range of the gradient region, and point the
        leaf at it there; returns the pool arrays given up.  The region
        then holds ``generation``'s gradients."""
        moved = []
        for t in leaves:
            g = t.grad
            r = None if g is None else tracer._owner(g, len(self.entries))
            if r is None or self.entries[r][4] != 1:
                continue
            e = self.entries[r]
            skip = _address(g) - _address(root(g))
            if skip == 0 and g.shape == e[1] and g.dtype == e[0]:
                home = e[2]
            else:
                home = self.regions[1][e[5] + skip : e[5] + skip + g.nbytes]
                home = home.view(g.dtype).reshape(g.shape)
            np.copyto(home, g)
            t.grad = home
            moved.append(g)
        if moved:
            self.generation = generation
        return moved

    def start(self, pool) -> None:
        if self.keeps_grads:
            self.generation = pool.generation
        self.cursor = 0
        self.unit = None
        self.left = None
        self.pool = pool
        self.off_plan = 0

    # -- the allocator -----------------------------------------------------
    def acquire(self, shape, dtype, rows=None) -> np.ndarray:
        """The plan's next buffer."""
        i = self.cursor
        try:
            e = self.entries[i]
        except IndexError:
            return self._leave(shape, dtype)
        # Builtin NumPy dtypes are singletons: identity almost always hits.
        if shape == e[1] and (dtype is e[0] or dtype == e[0]) and e[3] == self.unit:
            self.cursor = i + 1
            return e[2]
        return self._serve_slow(e, shape, dtype)

    def _serve_slow(self, e, shape, dtype) -> np.ndarray:
        dt = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        if type(shape) is not tuple:
            shape = (shape,) if type(shape) is int else tuple(shape)
        if dt != e[0] or e[3] != self.unit:
            return self._leave(shape, dt)
        if shape != e[1]:
            # Routing moved an extent: a view of the same range, when
            # the range holds it.
            nbytes = prod(shape) * dt.itemsize
            if nbytes > e[6]:
                return self._leave(shape, dt)
            view = e[7].get(shape)
            if view is None:
                view = e[7][shape] = (
                    self.regions[e[4]][e[5] : e[5] + nbytes].view(dt).reshape(shape)
                )
            e[1], e[2] = shape, view
        self.cursor += 1
        return e[2]

    def _leave(self, shape, dtype) -> np.ndarray:
        """Off the plan: the pool serves the rest of this replay."""
        pool = self.pool
        self.left = pool.hits + pool.misses + pool.skipped
        current().arena = pool
        return pool.acquire(shape, dtype)

    def release(self, view: np.ndarray) -> bool:
        return False

    # -- the walk's books --------------------------------------------------
    def walk(self) -> "Layout":
        return self

    def track(self, a: np.ndarray) -> None:
        pass

    def retire(self, a: np.ndarray) -> None:
        pass

    def adopt(self, a: np.ndarray, leaf) -> bool:
        """What the recording's walk decided for ``leaf``, where ``a``
        lies in the gradient region."""
        return self.adopted.get(id(leaf), False) and root(a) is self.grad_root
