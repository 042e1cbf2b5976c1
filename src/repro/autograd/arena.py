"""Generation-tagged buffer arena for the steady-state training step.

After PR 1 made the sparse GEMMs fast, profiles of the Fig 7 end-to-end
dMoE benchmark show the training step spending a large fraction of its
time in the allocator: every step re-creates every activation, gradient
accumulator, optimizer temporary, and padded gather/scatter buffer from
scratch.  For a fixed-shape workload those allocations are identical
step after step, so a pool that hands the same memory back each
iteration removes the churn entirely.

Design:

- Buffers are pooled by ``(bucket, dtype)`` where ``bucket`` is the
  element count rounded up to a power of two.  Bucketing lets
  routing-dependent padded shapes (which wobble between steps) share
  buffers instead of fragmenting the pool.  Requests below
  :data:`MIN_BUCKET` elements bypass the pool entirely — for small
  arrays malloc is faster than any bookkeeping, and they contribute
  almost nothing to the per-step allocation peak.
- Each key owns a LIFO free stack.  :meth:`BufferArena.acquire` pops the
  most recently freed base (the cache-hot one — mirroring what malloc
  does for the reference path's transient allocations, which matters as
  much as avoiding the allocation itself) and returns the view
  ``base[:n].reshape(shape)``.
- :meth:`BufferArena.release` recycles a buffer the moment it is
  provably dead — staging copies inside the grouped sparse kernels, and
  interior gradients during the backward walk (see
  ``Tensor.backward``).  It accepts views: ownership is tracked by the
  *base* array, so releasing e.g. a ``reshape`` of an acquired buffer
  frees the buffer itself.
- :meth:`BufferArena.next_generation` (called once per training step by
  the :class:`~repro.training.trainer.Trainer`) retires whatever is
  still live — step-scoped activations and anything the release
  analysis could not prove dead.
- A byte cap bounds each pool's growth; past the cap, retiring buffers
  are dropped to the GC instead of pooled.

Arena buffers contain stale data from the previous step, so every
call site MUST fully overwrite the buffer (``out=`` ufuncs, ``fill``,
``np.copyto``, padded ``np.take``).  The tier-1 equivalence smoke
(``tests/integration/test_steady_state.py``) trains a dMoE with the
arena on vs. off and asserts bit-identical trajectories to guard this
invariant.

Each thread has its own pool, and its requests go to it only inside
:func:`steady_state`, which sets the ``arena`` field of the thread's
execution record (``repro.autograd.execution``).  The field decides
where a buffer comes from, never which code runs: when it is ``None``,
:func:`empty` and :func:`zeros` return plain NumPy
arrays, the ``out=`` helpers (:func:`out_buf`, :func:`binary_buf`,
:func:`matmul_buf`) return ``None`` — a ufunc given ``out=None``
allocates exactly what its operator form would — :func:`release`
is a no-op, and no memory plan is recorded or served.  Call sites pass
the helpers' results straight on and never branch on them; this module
and the memory plan that stands in for the pool during a replay
(:mod:`repro.autograd.memplan`) are the only readers of the field.
"""

from __future__ import annotations

import contextlib
from math import prod as _prod
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.autograd import stats
from repro.autograd.execution import current, mine

#: Smallest pooled buffer, in elements.  Below this, malloc beats the
#: pool: a small allocation costs well under a microsecond while an
#: acquire/release round trip costs several, and small buffers barely
#: register in the per-step allocation peak the pool exists to remove.
MIN_BUCKET = 2048

#: Default cap on total pooled bytes (free + live).
DEFAULT_CAPACITY_BYTES = 512 * 1024 * 1024

_RESHAPE_COPY_BYTES = stats.RESHAPE_COPY_BYTES


class BufferArena:
    """A pool of flat NumPy arrays with per-step generation reclaim.

    ``acquire`` runs ~1000 times per training step, so the hot path is
    kept to a dict probe, a list pop, and two view creations.  Ownership
    is tracked by the id of the flat *base* array (one per buffer), so
    any view of an acquired buffer can be released.  The pool key uses
    ``dtype.num``: native-endian scalar types only, which is all this
    codebase allocates.
    """

    __slots__ = (
        "capacity_bytes",
        "_free",
        "_live",
        "_free_bytes",
        "_live_bytes",
        "generation",
        "hits",
        "misses",
        "evictions",
        "released",
        "skipped",
        "unit",
    )

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        self.capacity_bytes = capacity_bytes
        # (bucket_elements, dtype.num) -> LIFO stack of (base, viewcache)
        # pairs.  viewcache maps a shape tuple to the ready-made view of
        # that base — for a fixed-shape workload nearly every acquire
        # re-requests a shape the base has served before, so the view
        # creation (slice + reshape, the priciest part of the hot path)
        # happens once per (buffer, shape) instead of once per acquire.
        self._free: Dict[Tuple[int, int], list] = {}
        # id(base) -> (key, base, viewcache, serial).  Holding the base
        # keeps its id stable while the buffer is live; serial is the
        # pool's acquire count when it was handed out (see WalkBuffers).
        self._live: Dict[int, tuple] = {}
        self._free_bytes = 0
        self._live_bytes = 0
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.released = 0
        self.skipped = 0
        #: Which unit of a replay runs (a memory plan's clock; unread here).
        self.unit = None

    # ------------------------------------------------------------------
    # Core pool operations
    # ------------------------------------------------------------------
    def acquire(self, shape: Tuple[int, ...], dtype, rows=None) -> np.ndarray:
        """A writable array of ``shape``/``dtype`` backed by pooled memory.

        Contents are uninitialized (stale from a previous step); the
        caller must fully overwrite them.  ``rows`` (see :func:`empty`)
        is for a recording memory plan; the pool ignores it.
        """
        dt = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        if type(shape) is not tuple:
            shape = (shape,) if type(shape) is int else tuple(shape)
        n = int(_prod(shape))
        if n < MIN_BUCKET:
            self.skipped += 1
            return np.empty(shape, dtype=dt)
        b = 1 << (n - 1).bit_length()
        key = (b, dt.num)
        stack = self._free.get(key)
        if stack:
            base, vc = stack.pop()
            self._free_bytes -= base.nbytes
            self.hits += 1
            view = vc.get(shape)
            if view is None:
                view = vc[shape] = base[:n].reshape(shape)
        else:
            base = np.empty(b, dtype=dt)
            self.misses += 1
            view = base[:n].reshape(shape)
            vc = {shape: view}
        self._live[id(base)] = (key, base, vc, self.hits + self.misses)
        self._live_bytes += base.nbytes
        return view

    def release(self, view: np.ndarray) -> bool:
        """Recycle ``view``'s buffer the moment it is dead, ahead of the
        next generation.  Accepts any view of an acquired buffer (NumPy
        collapses view chains, so ``view.base`` is the flat base array).
        No-op (returns False) for arrays the arena does not own — callers
        may pass anything without checking provenance."""
        base = view
        while base.base is not None:  # broadcast_to views nest one deeper
            base = base.base
        entry = self._live.pop(id(base), None)
        if entry is None:
            return False
        self._live_bytes -= entry[1].nbytes
        self._stash(entry)
        self.released += 1
        return True

    def owns(self, view: np.ndarray) -> bool:
        """True if ``view`` is backed by a currently-live arena buffer."""
        base = view
        while base.base is not None:
            base = base.base
        return id(base) in self._live

    def next_generation(self) -> None:
        """Retire every still-live buffer; called once per training step."""
        for entry in self._live.values():
            self._live_bytes -= entry[1].nbytes
            self._stash(entry)
        self._live.clear()
        self.generation += 1

    def retire(self, keep: Iterable[Optional[np.ndarray]]) -> None:
        """Retire every live buffer but those backing an array of
        ``keep`` (``None`` entries are skipped) — what a captured micro
        batch leaves behind besides its leaf gradients, before the
        graph's first replay asks for memory."""
        kept = {id(root(a)) for a in keep if a is not None}
        for bid in [bid for bid in self._live if bid not in kept]:
            entry = self._live.pop(bid)
            self._live_bytes -= entry[1].nbytes
            self._stash(entry)

    def trim(self) -> None:
        """Drop every free buffer to the GC (live ones stay): a memory
        plan has taken over what they served."""
        self._free.clear()
        self._free_bytes = 0

    def clear(self) -> None:
        """Drop all pooled memory (free and live) and reset counters."""
        self._free.clear()
        self._live.clear()
        self._free_bytes = 0
        self._live_bytes = 0
        self.hits = self.misses = self.evictions = self.released = 0
        self.skipped = 0

    def walk(self) -> "WalkBuffers":
        """A backward walk's bookkeeping over this pool."""
        return WalkBuffers(self)

    def _stash(self, entry: tuple) -> None:
        key, base, vc, _serial = entry
        if self._free_bytes + base.nbytes > self.capacity_bytes:
            self.evictions += 1
            return  # let the GC take it
        stack = self._free.get(key)
        if stack is None:
            stack = self._free[key] = []
        stack.append((base, vc))
        self._free_bytes += base.nbytes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pooled_bytes(self) -> int:
        return self._free_bytes + self._live_bytes

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "generation": self.generation,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "evictions": self.evictions,
            "released": self.released,
            "skipped": self.skipped,
            "pooled_bytes": self.pooled_bytes,
            "live_buffers": len(self._live),
        }


# ----------------------------------------------------------------------
# The backward walk's buffer bookkeeping
# ----------------------------------------------------------------------
class WalkBuffers:
    """Pool bookkeeping of one backward walk: which gradient arrays it
    may recycle, and which a leaf may keep.

    Interior gradients go back to the pool the moment they are dead, so
    a steady walk recycles cache-hot memory (like malloc does for the
    reference walk, whose arrays the pool does not own: there every
    release is a no-op and every leaf copies).  One buffer can back
    several pending gradients — backward functions return views
    (``_Reshape``) or the very same array for several inputs (``_Add``
    with equal shapes) — so each stored gradient bumps a count on its
    *root* array and the buffer is released when the last of them is
    consumed.

    The same count says when an array is the walk's alone: held by one
    pending gradient, and handed out by the pool during this walk (its
    acquire serial in the live table is past the one taken here), so
    neither a sibling gradient nor anything the forward saved can alias
    it.  Such an array is *adopted* by the leaf it reaches instead of
    being copied (``tensor._accumulate_leaf``); it is then never
    released, and lives until the pool's next generation like any
    leaf-gradient buffer.

    A replay served by a memory plan walks with the plan's own
    bookkeeping instead (:class:`repro.autograd.memplan.Layout`): its
    buffers are laid out by lifetime, so nothing is counted or released,
    and a leaf adopts what the recording replay adopted.  ``unit`` is
    where the walk says which entry runs; only a plan reads it.
    """

    __slots__ = ("release", "refs", "pool", "serial", "unit")

    def __init__(self, pool: Optional["BufferArena"], release=None) -> None:
        self.pool = pool
        if release is None:
            release = pool.release if pool is not None else _keep
        self.release = release
        self.refs: dict = {}
        self.serial = pool.hits + pool.misses if pool is not None else 0

    def track(self, a: np.ndarray) -> None:
        bid = id(root(a))
        self.refs[bid] = self.refs.get(bid, 0) + 1

    def retire(self, a: np.ndarray) -> None:
        bid = id(root(a))
        n = self.refs.get(bid, 0) - 1
        if n > 0:
            self.refs[bid] = n
        else:
            self.refs.pop(bid, None)
            self.release(a)

    def adopt(self, a: np.ndarray, leaf) -> bool:
        """Give ``a`` up to ``leaf`` if it is the walk's alone."""
        base = root(a)
        if self.refs.get(id(base)) != 1 or self.pool is None:
            return False
        entry = self.pool._live.get(id(base))
        if entry is None or entry[3] <= self.serial:
            return False
        del self.refs[id(base)]
        return True


def _keep(view: np.ndarray) -> bool:
    return False


def root(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory (``broadcast_to`` views nest
    one deeper than NumPy's collapsed ``.base``)."""
    while a.base is not None:
        a = a.base
    return a


def get_arena() -> BufferArena:
    """The calling thread's buffer pool, made on first use."""
    ex = mine()
    if ex.pool is None:
        ex.pool = BufferArena()
    return ex.pool


@contextlib.contextmanager
def steady_state():
    """The steady step's scope: the calling thread's requests go to its
    pool inside it; yields the pool.

    Outside it they allocate, so the allocating step stays the reference
    the steady step is bit-compared against.
    """
    pool = get_arena()
    ex = current()
    prev = ex.arena
    ex.arena = prev or pool  # a replay's memory plan inside stays in charge
    try:
        yield pool
    finally:
        ex.arena = prev


# ----------------------------------------------------------------------
# Hot-path helpers: one read of the thread's allocator each, and plain
# NumPy when it has none, so call sites stay branch-free.
# ----------------------------------------------------------------------
def empty(shape, dtype, rows=None) -> np.ndarray:
    """Uninitialized array: pooled in a steady scope, fresh otherwise.

    ``rows`` names what the array's leading axis indexes when routing
    may size it: an array whose leading axis it shares (the operand a
    row-wise op maps), or the topology or dispatch plan it was sized
    from.  A memory plan recording this replay reserves such an array
    at the bound its dispatch declared
    (:func:`repro.autograd.memplan.routed`), so routing never outgrows
    it; any other array is planned at the size it was asked for."""
    alloc = current().arena
    if alloc is None:
        return np.empty(shape, dtype=dtype)
    return alloc.acquire(shape, dtype, rows)


def zeros(shape, dtype, rows=None) -> np.ndarray:
    """Zeroed array: pooled in a steady scope, fresh otherwise
    (``rows`` as for :func:`empty`)."""
    alloc = current().arena
    if alloc is None:
        return np.zeros(shape, dtype=dtype)
    buf = alloc.acquire(shape, dtype, rows)
    buf.fill(0)
    return buf


def release(view: Optional[np.ndarray]) -> None:
    """Early-return a buffer (no-op for non-arena arrays, outside a
    steady scope, and under a memory plan, where every buffer's
    lifetime was laid out in advance)."""
    alloc = current().arena
    if alloc is not None and view is not None:
        alloc.release(view)


def out_buf(shape, dtype, rows=None) -> Optional[np.ndarray]:
    """An ``out=`` target, or ``None`` (→ let NumPy allocate) outside a
    steady scope (``rows`` as for :func:`empty`)."""
    alloc = current().arena
    if alloc is None:
        return None
    return alloc.acquire(shape, dtype, rows)


def binary_buf(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """``out=`` target for a broadcasting binary ufunc on ``a``/``b``.

    Matches NumPy's own result shape/dtype so writing through ``out=``
    is bit-identical to the allocation the ufunc would have made.  The
    common same-shape/same-dtype case skips ``broadcast_shapes`` /
    ``result_type`` (both pure-Python and measurable at ~500 calls per
    step).
    """
    alloc = current().arena
    if alloc is None:
        return None
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    dt = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    return alloc.acquire(shape, dt, (a, b))


def matmul_buf(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """``out=`` target for ``a @ b`` (2-D or stacked 3-D operands)."""
    alloc = current().arena
    if alloc is None or a.ndim < 2 or b.ndim < 2:
        return None
    if a.ndim == 2 and b.ndim == 2:
        shape: Tuple[int, ...] = (a.shape[0], b.shape[1])
    else:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        shape = lead + (a.shape[-2], b.shape[-1])
    dt = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    return alloc.acquire(shape, dt, (a,))


def reshaped(a: np.ndarray, shape) -> np.ndarray:
    """``a.reshape(shape)`` with any copy staged through the pool.

    Returns a view whenever NumPy would (same object semantics); when the
    reshape needs a copy — e.g. merging heads after a transpose — the
    C-order copy lands in a pooled buffer instead of a fresh allocation
    and is counted in ``autograd/reshape_copy_bytes``.  Bit-identical either
    way.

    Whether a view exists is decided from shape and strides alone:
    ``reshape(copy=False)`` (NumPy >= 2.1) raises before touching data.
    Assigning ``view.shape`` is *not* such a probe — it performs the
    whole copying reshape into a fresh allocation and only then raises.
    """
    alloc = current().arena
    if alloc is None:
        return a.reshape(shape)
    try:
        return a.reshape(shape, copy=False)
    except ValueError:
        pass
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    if -1 in shape:
        rest = 1
        for s in shape:
            if s != -1:
                rest *= s
        shape = tuple(a.size // rest if s == -1 else s for s in shape)
    buf = alloc.acquire(shape, a.dtype, a)
    np.copyto(buf.reshape(a.shape), a)
    _RESHAPE_COPY_BYTES.value += buf.nbytes
    return buf
