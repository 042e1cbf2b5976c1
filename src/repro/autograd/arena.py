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
- A global byte cap bounds pool growth; past the cap, retiring buffers
  are dropped to the GC instead of pooled.

Arena buffers contain stale data from the previous step, so every
call site MUST fully overwrite the buffer (``out=`` ufuncs, ``fill``,
``np.copyto``, padded ``np.take``).  The tier-1 equivalence smoke
(``tests/integration/test_steady_state.py``) trains a dMoE with the
arena on vs. off and asserts bit-identical trajectories to guard this
invariant.

The arena is **off by default**; enable with :func:`set_arena_enabled`,
or per-block with :func:`steady_state` (``repro.autograd.steady_state``).
The switch decides where a buffer comes from, never which code runs:
when it is off, :func:`empty` and :func:`zeros` return plain NumPy
arrays, the ``out=`` helpers (:func:`out_buf`, :func:`binary_buf`,
:func:`matmul_buf`) return ``None`` — a ufunc given ``out=None``
allocates exactly what its operator form would — and :func:`release`
is a no-op.  Call sites pass the helpers' results straight on and
never branch on them.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.autograd import stats

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
        # pool's acquire count when it was handed out (see WalkMark).
        self._live: Dict[int, tuple] = {}
        self._free_bytes = 0
        self._live_bytes = 0
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.released = 0
        self.skipped = 0

    # ------------------------------------------------------------------
    # Core pool operations
    # ------------------------------------------------------------------
    def acquire(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A writable array of ``shape``/``dtype`` backed by pooled memory.

        Contents are uninitialized (stale from a previous step); the
        caller must fully overwrite them.
        """
        # Static-buffer-plan fast path (graph replay): the recorded
        # schedule re-requests the same sequence of buffers every step,
        # so a cursor over the recorded plan replaces the whole pool
        # dance below.  One global load + is-None test when inactive.
        script = _SCRIPT
        if script is not None:
            view = script._serve(shape, dtype)
            if view is not None:
                return view
            # Plan diverged: _serve deactivated the script; fall through
            # to the real pool for the rest of the step.
        dt = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        if type(shape) is not tuple:
            shape = (shape,) if type(shape) is int else tuple(shape)
        n = 1
        for s in shape:
            n *= s
        n = int(n)
        if n < MIN_BUCKET:
            self.skipped += 1
            arr = np.empty(shape, dtype=dt)
            rec = _SCRIPT_REC
            if rec is not None:
                rec.entries.append([dt, shape, arr, None, None, None])
            return arr
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
        rec = _SCRIPT_REC
        if rec is not None:
            rec.entries.append([dt, shape, view, base, vc, b])
        return view

    def release(self, view: np.ndarray) -> bool:
        """Recycle ``view``'s buffer the moment it is dead, ahead of the
        next generation.  Accepts any view of an acquired buffer (NumPy
        collapses view chains, so ``view.base`` is the flat base array).
        No-op (returns False) for arrays the arena does not own — callers
        may pass anything without checking provenance."""
        if _SCRIPT is not None:
            # Scripted replay: every buffer in flight is script-owned and
            # already detached from the pool, so the release is a
            # guaranteed no-op — skip the base walk and dict lookup
            # (~400 calls per step).
            return False
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

    def acquire_detached(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A pooled buffer *outside* generation tracking.

        Long-lived state — the serving KV caches — must survive
        :meth:`next_generation`, which retires every buffer in the live
        table.  A detached acquire is an :meth:`acquire` (so it reuses
        pooled memory) taken straight back out of ``_live``, so per-step
        reclaim cannot take it back.  Return it explicitly
        with :meth:`surrender` when the owner is done.

        Contents are uninitialized; the caller must overwrite them.
        """
        view = self.acquire(shape, dtype)
        # A below-floor array is a plain malloc and never entered _live.
        entry = self._live.pop(id(view.base), None)
        if entry is not None:
            self._live_bytes -= entry[1].nbytes
        return view

    def surrender(self, view: np.ndarray) -> None:
        """Return a buffer from :meth:`acquire_detached` to the pool.

        Below-floor buffers (plain mallocs) just drop to the GC.  The
        view cache is rebuilt fresh: the detached holder may have carved
        arbitrary views that are now dead.
        """
        base = view
        while base.base is not None:
            base = base.base
        n = base.size
        if n < MIN_BUCKET:
            return
        b = 1 << (n - 1).bit_length()
        if b != n:  # not a pooled flat base we handed out; let GC take it
            return
        self._stash(((b, base.dtype.num), base, {}, 0))

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

    def clear(self) -> None:
        """Drop all pooled memory (free and live) and reset counters."""
        self._free.clear()
        self._live.clear()
        self._free_bytes = 0
        self._live_bytes = 0
        self.hits = self.misses = self.evictions = self.released = 0
        self.skipped = 0

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
            "enabled": is_arena_enabled(),
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
# Static buffer plans (captured step-graph replay)
# ----------------------------------------------------------------------
class BufferScript:
    """The static buffer plan of one replayed micro batch.

    A compiled step graph executes the identical op schedule every
    replay, so it also issues the identical sequence of arena requests.
    On its first replay the graph records that sequence — every
    :meth:`BufferArena.acquire` appends ``[dtype, shape, view, base,
    viewcache, bucket]`` — and the recorded bases are *detached* from
    the pool (removed from the free stacks and the live table) so
    nothing else can ever alias them.  Subsequent replays serve the plan
    by cursor: the common case is one tuple compare and a list index in
    place of the bucket/LIFO/view-cache machinery.

    Divergence handling keeps the plan safe rather than clever:

    - Same position, different shape that still fits the owned base
      (tokens-per-expert wobble resizing a sparse buffer): a fresh view
      of the same memory is served and the entry updated in place.
    - Shape that outgrows the base (wobble crossing a bucket boundary):
      the base grows monotonically, like a capacity vector — same
      position, same role, so the liveness reasoning is unchanged.
    - Different dtype, or more requests than entries — the op sequence
      itself changed, not just sizes: the script deactivates itself
      *for the rest of the step* and the real pool takes over.  The
      served prefix followed the recorded order exactly, so its
      liveness reasoning still holds, and the pool can never hand out a
      script-owned base.  The owner re-records a fresh plan next replay.
    - Fewer requests than entries (detected by the owner via
      ``cursor != len(entries)``): the plan is dropped and re-recorded.

    Entries below the pooling floor hold their own private small array
    (distinct per position, so two live small buffers can never share
    memory); serving it again is safe under the arena's fully-overwrite
    contract that every call site already obeys.

    The invariant all of this rests on: **a replay's acquire sequence
    is a function of its records.**  Serving by position is sound only
    while request ``i`` of every replay plays the role request ``i``
    played when the plan was recorded; the checks above see dtype and
    count, not role, so a same-dtype request from another code path
    would be served a recorded base that may still be live.  Nothing
    that routing moves may therefore choose which code acquires — the
    sparse dispatch path included (``repro.sparse.dispatch.use_grouped``).
    """

    __slots__ = ("entries", "cursor", "dead")

    def __init__(self) -> None:
        self.entries: list = []
        self.cursor = 0
        self.dead = False

    def _serve(self, shape, dtype) -> Optional[np.ndarray]:
        i = self.cursor
        entries = self.entries
        if i >= len(entries):
            self.dead = True
            deactivate_script()
            return None
        e = entries[i]
        # Fast path: same shape tuple, same dtype object (builtin NumPy
        # dtypes are singletons, so identity almost always hits).
        if shape == e[1] and (dtype is e[0] or dtype == e[0]):
            self.cursor = i + 1
            return e[2]
        return self._serve_slow(e, shape, dtype)

    def _serve_slow(self, e, shape, dtype) -> Optional[np.ndarray]:
        dt = dtype if isinstance(dtype, np.dtype) else np.dtype(dtype)
        if type(shape) is not tuple:
            shape = (shape,) if type(shape) is int else tuple(shape)
        if dt != e[0]:
            # A dtype change at a fixed schedule position means the op
            # sequence itself changed — not wobble.  Bail out safely.
            self.dead = True
            deactivate_script()
            return None
        if shape == e[1]:
            self.cursor += 1
            return e[2]
        n = 1
        for s in shape:
            n *= s
        n = int(n)
        base = e[3]
        if base is not None and n <= base.size:
            # Shape wobble within the owned base: new view, same memory.
            vc = e[4]
            view = vc.get(shape)
            if view is None:
                view = vc[shape] = base[:n].reshape(shape)
        elif base is None and n < MIN_BUCKET:
            # Below-floor entry: adopt the new small shape in place.
            view = np.empty(shape, dtype=dt)
        else:
            # Outgrew the owned base (tokens-per-expert drift crossing a
            # bucket boundary): grow it monotonically, like a capacity
            # vector.  The old base is dropped; same position, same
            # role, so the plan's liveness reasoning is unchanged.
            b = 1 << (n - 1).bit_length()
            if b < MIN_BUCKET:
                b = MIN_BUCKET
            base = np.empty(b, dtype=dt)
            view = base[:n].reshape(shape)
            e[3] = base
            e[4] = {shape: view}
            e[5] = b
        e[1] = shape
        e[2] = view
        self.cursor += 1
        return view


_SCRIPT: Optional[BufferScript] = None
_SCRIPT_REC: Optional[BufferScript] = None


def begin_script_recording() -> BufferScript:
    """Start recording every ``acquire`` into a fresh buffer plan."""
    global _SCRIPT_REC
    if _SCRIPT_REC is not None or _SCRIPT is not None:
        raise RuntimeError("a buffer script is already recording or active")
    _SCRIPT_REC = BufferScript()
    return _SCRIPT_REC


def end_script_recording(discard: bool = False) -> Optional[BufferScript]:
    """Stop recording; detach the recorded bases from the pool.

    Detaching (dropping the bases from the live table and free stacks)
    makes the plan self-contained: the pool can never serve one of its
    buffers to an unrelated caller, which is what makes cursor-order
    replay alias-free.  With ``discard=True`` nothing is detached and
    the partial plan is thrown away (exception paths).
    """
    global _SCRIPT_REC
    script, _SCRIPT_REC = _SCRIPT_REC, None
    if script is None or discard:
        return None
    ids = {id(e[3]) for e in script.entries if e[3] is not None}
    if ids:
        pool = _ARENA
        for bid in ids:
            entry = pool._live.pop(bid, None)
            if entry is not None:
                pool._live_bytes -= entry[1].nbytes
        for key in list(pool._free):
            stack = pool._free[key]
            kept = [bv for bv in stack if id(bv[0]) not in ids]
            if len(kept) != len(stack):
                for b, _vc in stack:
                    if id(b) in ids:
                        pool._free_bytes -= b.nbytes
                if kept:
                    pool._free[key] = kept
                else:
                    del pool._free[key]
    return script


def activate_script(script: BufferScript) -> None:
    """Serve subsequent acquires from ``script`` (until deactivated or
    the plan diverges)."""
    global _SCRIPT
    if _SCRIPT_REC is not None:
        raise RuntimeError("cannot activate a buffer script while recording")
    script.cursor = 0
    _SCRIPT = script


def deactivate_script() -> Optional[BufferScript]:
    """Stop serving from the active script; returns it (or ``None``)."""
    global _SCRIPT
    script, _SCRIPT = _SCRIPT, None
    return script


class WalkMark:
    """Taken when a backward walk starts: which pooled buffers were
    acquired since?

    A buffer acquired during the walk cannot be reached by anything
    recorded before it — a saved activation, a graph constant, a
    parameter — which is what lets a leaf *adopt* such a gradient array
    instead of copying it (``tensor._accumulate_leaf``).  Pool-served
    buffers carry their acquire serial in the live table; script-served
    ones are detached from it, and the entries the script has served
    since the mark name them (the same buffers every replay, so the
    eager walk, the recording replay and the scripted replays answer
    alike and issue the same acquire sequence).
    """

    __slots__ = ("_serial", "_script", "_seen", "_born")

    def __init__(self) -> None:
        self._serial = _ARENA.hits + _ARENA.misses
        self._script = _SCRIPT
        self._seen = _SCRIPT.cursor if _SCRIPT is not None else 0
        self._born: set = set()

    def born_since(self, base: np.ndarray) -> bool:
        """``base`` (a root array: ``base.base is None``) is a pooled
        buffer handed out after the mark."""
        entry = _ARENA._live.get(id(base))
        if entry is not None:
            return entry[3] > self._serial
        script = self._script
        if script is None:
            return False
        if script.cursor > self._seen:
            self._born.update(
                id(e[3]) for e in script.entries[self._seen : script.cursor]
            )
            self._seen = script.cursor
        return id(base) in self._born


# ----------------------------------------------------------------------
# Module-level singleton + enable switch
# ----------------------------------------------------------------------
_ARENA = BufferArena()
_ENABLED = False


def get_arena() -> BufferArena:
    return _ARENA


def is_arena_enabled() -> bool:
    return _ENABLED


def set_arena_enabled(enabled: bool) -> bool:
    """Flip the global switch; returns the previous value."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(enabled)
    return prev


@contextlib.contextmanager
def steady_state():
    """The steady step's scope: the arena is on inside it; yields the
    arena.

    It is off outside, so the allocating step stays the reference the
    steady step is bit-compared against.
    """
    prev = set_arena_enabled(True)
    try:
        yield _ARENA
    finally:
        set_arena_enabled(prev)


# ----------------------------------------------------------------------
# Hot-path helpers.  All degrade gracefully when the arena is disabled
# so call sites stay branch-free.
# ----------------------------------------------------------------------
def empty(shape, dtype) -> np.ndarray:
    """Uninitialized array: pooled when the arena is on, fresh otherwise."""
    if _ENABLED:
        return _ARENA.acquire(shape, dtype)
    return np.empty(shape, dtype=dtype)


def zeros(shape, dtype) -> np.ndarray:
    """Zeroed array: pooled when the arena is on, fresh otherwise."""
    if _ENABLED:
        buf = _ARENA.acquire(shape, dtype)
        buf.fill(0)
        return buf
    return np.zeros(shape, dtype=dtype)


def release(view: Optional[np.ndarray]) -> None:
    """Early-return a buffer (no-op for non-arena arrays / when off)."""
    if _ENABLED and view is not None:
        _ARENA.release(view)


def out_buf(shape, dtype) -> Optional[np.ndarray]:
    """An ``out=`` target, or ``None`` (→ let NumPy allocate) when off."""
    if _ENABLED:
        return _ARENA.acquire(shape, dtype)
    return None


def binary_buf(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """``out=`` target for a broadcasting binary ufunc on ``a``/``b``.

    Matches NumPy's own result shape/dtype so writing through ``out=``
    is bit-identical to the allocation the ufunc would have made.  The
    common same-shape/same-dtype case skips ``broadcast_shapes`` /
    ``result_type`` (both pure-Python and measurable at ~500 calls per
    step).
    """
    if not _ENABLED:
        return None
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape)
    dt = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    return _ARENA.acquire(shape, dt)


def matmul_buf(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """``out=`` target for ``a @ b`` (2-D or stacked 3-D operands)."""
    if not _ENABLED or a.ndim < 2 or b.ndim < 2:
        return None
    if a.ndim == 2 and b.ndim == 2:
        shape: Tuple[int, ...] = (a.shape[0], b.shape[1])
    else:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        shape = lead + (a.shape[-2], b.shape[-1])
    dt = a.dtype if a.dtype == b.dtype else np.result_type(a, b)
    return _ARENA.acquire(shape, dt)


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
    if not _ENABLED:
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
    buf = _ARENA.acquire(shape, a.dtype)
    np.copyto(buf.reshape(a.shape), a)
    _RESHAPE_COPY_BYTES.value += buf.nbytes
    return buf
