"""The :class:`Tensor` — a ``numpy.ndarray`` with a gradient tape.

Only the machinery lives here; the actual differentiable operations are
defined in ``ops_basic``/``ops_nn``/``ops_loss`` and registered as methods
via :func:`register_tensor_op` to keep this module import-cycle free.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.autograd import arena, stats
from repro.autograd.execution import current, mine
from repro.autograd.function import Node

_ndarray = np.ndarray
_LEAF_COPY_BYTES = stats.LEAF_COPY_BYTES


def _accumulate_leaf(t: "Tensor", g: np.ndarray, walk) -> None:
    """Deliver gradient ``g`` to leaf ``t``; the one rule of the eager
    and the replayed walk.

    The first contribution becomes ``t.grad``: ``g`` itself when it
    already is what a copy would produce (the leaf's dtype, C-contiguous,
    writeable) and ``walk`` (the allocator's walk bookkeeping,
    :class:`repro.autograd.arena.WalkBuffers` on the pool) lets the leaf
    adopt it; a copy otherwise
    (casting to the leaf dtype, as ``astype(copy=True)`` did).  Later
    contributions behave like ``t.grad + g`` — in place when the dtypes
    allow, including the promotion that falls back to a fresh allocation
    when a higher-precision gradient arrives.
    ``g`` is retired to ``walk`` unless it was adopted.
    """
    cur = t.grad
    if cur is None:
        if (
            g.dtype == t.data.dtype
            and g.flags.c_contiguous
            and g.flags.writeable
            and walk.adopt(g, t)
        ):
            t.grad = g
            return
        buf = arena.empty(g.shape, t.data.dtype)
        np.copyto(buf, g, casting="unsafe")
        _LEAF_COPY_BYTES.value += buf.nbytes
        t.grad = buf
    elif cur.shape == g.shape and cur.dtype == np.result_type(cur.dtype, g.dtype):
        np.add(cur, g, out=cur)
    else:
        t.grad = cur + g
    walk.retire(g)


def walk_entries(order: List["Tensor"], ref_of: Callable[["Tensor"], int]) -> List[tuple]:
    """Compile a reverse topological ``order`` into :func:`run_walk`'s
    entries: one ``(kind, slot, ref, backward, targets)`` per tensor that
    can carry a gradient.

    A tensor's slot is its position in ``order``, so the root's is 0.
    Kind 0 is a tape node: ``backward`` is its Function's, ``ref_of(t)``
    names the entry of the walk's ``values`` table that holds the node's
    context, and ``targets`` has the slot of each tensor input (-1 where
    no gradient is wanted; every other input is in ``order``, because the
    order is everything reachable from the root).  Kind 1 is a leaf that
    requires grad, and ``ref`` is the tensor.
    """
    slot_of = {id(t): slot for slot, t in enumerate(order)}
    entries: List[tuple] = []
    for slot, t in enumerate(order):
        node = t._node
        if node is not None:
            targets = tuple(
                slot_of[id(inp)] if inp.requires_grad else -1
                for inp in node.tensor_inputs()
            )
            entries.append((0, slot, ref_of(t), node.fn.backward, targets))
        elif t.requires_grad:
            entries.append((1, slot, t, None, None))
    return entries


def run_walk(entries: List[tuple], num_slots: int, seed: np.ndarray, values) -> None:
    """The backward walk — the only one: :meth:`Tensor.backward` runs it
    over the tape it just sorted, a replayed step graph over the entries
    its capture compiled (some swapped for native kernels), which is what
    keeps the two bit-identical under buffer recycling.

    ``seed`` is the root's gradient (slot 0); ``values[ref][0]`` is the
    context of the tape node whose entry carries ``ref``.
    """
    grads: List[Optional[np.ndarray]] = [None] * num_slots
    # Slots whose buffer in `grads` is exclusively ours — safe to add
    # into in place.  First contributions are *not* owned: backward
    # functions may return views (``_Reshape``) or the very same array
    # for several inputs (``_Add`` with equal shapes), so adding into
    # them would corrupt sibling gradients.
    owned = bytearray(num_slots)

    # The allocator keeps the walk's books: the pool's refcounts, or a
    # memory plan's recorded decisions; ``unit`` tells it which entry runs.
    alloc = current().arena
    walk = alloc.walk() if alloc is not None else arena.WalkBuffers(None)
    grads[0] = seed
    walk.track(seed)

    for pos, (kind, slot, ref, bwd_fn, targets) in enumerate(entries):
        walk.unit = ~pos
        g = grads[slot]
        if g is None:
            continue
        grads[slot] = None
        if kind != 0:
            _accumulate_leaf(ref, g, walk)
            continue
        igs = bwd_fn(values[ref][0], g)
        if not isinstance(igs, (tuple, list)):
            igs = (igs,)
        if len(igs) != len(targets):
            raise RuntimeError(
                f"{bwd_fn.__qualname__} returned {len(igs)} grads "
                f"for {len(targets)} tensor inputs"
            )
        for tslot, ig in zip(targets, igs):
            if tslot < 0 or ig is None:
                continue
            if type(ig) is not _ndarray:
                ig = np.asarray(ig)
            cur = grads[tslot]
            if cur is None:
                grads[tslot] = ig
                owned[tslot] = 0
                walk.track(ig)
            elif cur.shape == ig.shape and cur.dtype == ig.dtype:
                buf = cur if owned[tslot] else arena.empty(cur.shape, cur.dtype, cur)
                np.add(cur, ig, out=buf)
                if buf is not cur:
                    grads[tslot] = buf
                    owned[tslot] = 1
                    walk.track(buf)
                    walk.retire(cur)
            else:
                # Mismatched shapes/dtypes: let NumPy promote.
                new = cur + ig
                grads[tslot] = new
                owned[tslot] = 1
                walk.track(new)
                walk.retire(cur)
        walk.retire(g)


def is_grad_enabled() -> bool:
    return current().grad


@contextlib.contextmanager
def no_grad():
    """Disable the calling thread's tape recording inside the block."""
    ex = mine()
    prev = ex.grad
    ex.grad = False
    try:
        yield
    finally:
        ex.grad = prev


def is_inference() -> bool:
    """True inside an :func:`inference_mode` block (the serving path)."""
    return current().inference


@contextlib.contextmanager
def inference_mode():
    """Serving-mode scope: ``no_grad`` plus the MoE layers' dropless
    dispatch.

    Inside this block no tape nodes are recorded, and an MoE layer
    (``dMoE``, ``MoELayer``) called as a module skips auxiliary-loss
    accumulation and runs the padding-free serving path
    (:func:`repro.moe.inference.moe_inference_forward`) — the path
    ``bench/layers.py`` times as ``moe.inference_fwd_*``.  Nothing else
    reads the flag: the KV-cached steps of :mod:`repro.serving.plan` call
    no module and run outside it (their MoE reference enters it itself).

    Training numerics are untouched — the flag defaults off, is the
    calling thread's alone, and nothing outside this context reads it.
    """
    ex = mine()
    prev = ex.grad, ex.inference
    ex.grad, ex.inference = False, True
    try:
        yield
    finally:
        ex.grad, ex.inference = prev


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _coerce_data(data: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(data, Tensor):
        data = data.data
    was_array = isinstance(data, np.ndarray)
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif not was_array and arr.dtype == np.float64:
        # Python floats/lists default to float32, matching the
        # mixed-precision setup in the paper.  Existing ndarrays keep
        # their dtype so float64 computations stay float64.
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """N-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _coerce_data(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._node: Optional[Node] = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                "item() requires a tensor with exactly one element, got "
                f"shape {self.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A view of the data cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(
        self, grad: Optional[np.ndarray] = None, retain_graph: bool = False
    ) -> None:
        """Accumulate gradients into every reachable leaf tensor.

        ``grad`` defaults to ones for scalar outputs (the usual loss case);
        non-scalar outputs require an explicit seed gradient.

        Each tape may be walked once: backward marks every reached node
        consumed and a second call raises ``RuntimeError``, because with
        the buffer arena enabled the saved activations may have been
        recycled after the first walk.  Pass ``retain_graph=True`` to
        keep the tape walkable (graph capture does, so it can compile
        the schedule from the still-intact tape after the eager walk).
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() on a non-scalar tensor requires an explicit "
                    f"gradient (shape {self.shape})"
                )
            # Fast path for the usual scalar-loss seed: ones_like already
            # has the right dtype and shape, skip asarray/reshape.
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                grad = grad.reshape(self.data.shape)

        order = self._topological_order()
        for t in order:
            node = t._node
            if node is not None and node.consumed:
                raise RuntimeError(
                    f"backward through {node.fn.__name__} a second time: the "
                    "tape has already been consumed (its saved buffers may "
                    "have been recycled). Pass retain_graph=True to the "
                    "first backward() to keep the tape walkable."
                )
        if not retain_graph:
            for t in order:
                if t._node is not None:
                    t._node.consumed = True
        # A tape node's context sits in ``values`` at the entry its
        # ``ref`` names — the table a replayed walk gets from the forward.
        values: list = []

        def ref_of(t: "Tensor") -> int:
            values.append((t._node.ctx,))
            return len(values) - 1

        run_walk(walk_entries(order, ref_of), len(order), grad, values)

    def _topological_order(self) -> List["Tensor"]:
        """Reverse topological order of the tape reachable from ``self``."""
        order: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, processed = stack.pop()
            if processed:
                order.append(t)
                continue
            if id(t) in visited:
                continue
            visited.add(id(t))
            stack.append((t, True))
            if t._node is not None:
                for inp in t._node.tensor_inputs():
                    if id(inp) not in visited:
                        stack.append((inp, False))
        order.reverse()
        return order


def register_tensor_op(name: str, fn: Callable) -> None:
    """Attach ``fn`` as a Tensor method (used by the ops modules)."""
    setattr(Tensor, name, fn)


def as_tensor(x: ArrayLike, dtype=None) -> Tensor:
    """Coerce ``x`` to a Tensor without copying when already one."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def zeros(shape, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def full(shape, value, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, value, dtype=dtype), requires_grad=requires_grad)


def randn(*shape, rng=None, dtype=np.float32, requires_grad: bool = False) -> Tensor:
    from repro.utils.rng import get_rng

    data = get_rng(rng).standard_normal(shape).astype(dtype)
    return Tensor(data, requires_grad=requires_grad)
