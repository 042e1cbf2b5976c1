"""The serving plan: every KV-cached step of a cache, bound once.

A serving step of a ``TransformerLM`` — a prefill of ``B`` sequences of
``S`` tokens, or a decode step, which is the same with ``S = 1`` — makes
the same calls whatever its rows: per block a LayerNorm, the QKV GEMM,
the K/V write at each row's (slot, position), attention over each row's
slot up to its position, the output GEMM, a residual add, a LayerNorm,
the FFN (a dense ``MLP``'s two GEMMs around its activation, or an MoE
layer) and a residual add; then the final LayerNorm and the head, on
each sequence's last row only.  The dMoE is dropless, so no row's result
depends on the rows beside it, and only the step's inputs change: the
token ids, one slot and one position per row, and the rows that get the
head.

:class:`ServingPlan` walks the model's modules once per cache and holds
every buffer of a step, sized for the cache's largest window (every slot
at ``min(model.max_seq_len, cache.max_seq_len)`` rows), each C call of
the kernel table's direct entries (``ln``, ``serve_gemm``, ``attn_rows``,
``serve_moe``) with its contract checked and its tables' pointers
converted once, and the NumPy calls between them (embedding gathers,
``np.exp`` over attention's ``heads * sum(lengths)`` scores, residual
adds, K/V writes, a dense FFN's activation, the tied head's ``einsum``).
Each call is, bit for bit, the reference it stands for: a step calls no
module, and its rows equal a full-window forward built from the
entries' references alone.  A row
count the plan has not stepped derives its *view* — one flat tuple of
prebound calls over the buffers' first rows, with that count in the C
calls' arguments and ``serve_moe``'s ``t`` — checking no contract and
allocating no buffer.  A step writes its inputs into the view's rows and
walks the tuple.

- *Bound once*: each entry's contract, on the operands the plan holds
  (:func:`repro.autograd.lower.runtime.native`).  An entry pinned to its
  reference, or an operand outside its contract, makes that item the
  entry's direct face on the same buffers, copied into the plan's — for
  an MoE layer ``serve_moe`` does not take (another router, non-GELU
  experts), ``serve_moe``'s face, which runs its reference.  A block
  FFN that is neither a dense ``MLP`` nor an MoE layer raises
  ``TypeError``.  Building counts nothing.
- *Checked every step* (:meth:`ServingPlan.current`): every attribute
  the plan read on its way from the model to a table is still the object
  it read — the module links (``model.blocks``, ``block.attn`` / ``ln1``
  / ``ln2`` / ``ffn``, ``attn.qkv``, ``linear.weight``, ``router.proj``,
  ``ffn.experts``, ``mlp.activation``, …) and each table's ``data``
  alike; an MoE layer
  bound to ``serve_moe`` keeps its router, settings and ``_quantized``
  tables, a LayerNorm its ``eps``; the cache still holds its K/V layers
  (:meth:`KVCache.release` drops them); every entry keeps its binding.
  A stale plan is rebuilt.  Then the data guards: one distinct integer
  slot per sequence (:meth:`KVCache.check_slots`), and positions below
  ``min(model.max_seq_len, cache.max_seq_len)``, all before any write.
- *A runner that declines mid-step* (``repro_moe_route`` on a non-finite
  logit) runs that layer's reference into the same buffer, counting
  nothing, as the direct face does.

Positions are absolute: a prefill writes its rows at each slot's length
onward, so a slot is reset (:meth:`KVCache.reset`) before its window is
encoded from position 0.  The buffers hold the embedding table's dtype,
and a fallback result of another dtype raises ``TypeError`` rather than
cast.  A step returns fresh logits, and leaves each MoE layer's
``last_routing`` in arrays no later step writes.  Dropout is the
identity: serving runs an eval-mode model.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import chain, repeat

import numpy as np

from repro.autograd import ACTIVATIONS
from repro.autograd.lower import runtime
from repro.autograd.lower.kernels import layernorm, serve
from repro.autograd.lower.kernels.base import addr
from repro.autograd.tensor import Tensor
from repro.core.dmoe import dMoE
from repro.moe.inference import moe_forward_ref
from repro.moe.moe_layer import MoELayer
from repro.moe.router import Router
from repro.nn.attention import CausalSelfAttention
from repro.nn.mlp import MLP
from repro.observability.metrics import registry
from repro.serving import kernels

_DIRECT, _GEMM_CALLS, _GEMM_FLOPS, _ATTN_CALLS, _ATTN_FLOPS = (
    registry().counter(name)
    for name in (
        "lower_direct_calls", "serve_gemm_calls", "serve_gemm_flops",
        "serve_attn_calls", "serve_attn_flops",
    )
)


def _plan(model, cache) -> "ServingPlan":
    """The cache's plan for ``model``, built (or rebuilt) when missing or
    stale."""
    plan = cache.plan
    if plan is None or plan.model is not model or not plan.current():
        plan = cache.plan = ServingPlan(model, cache)
    return plan


def prefill(model, ids, cache, slots=None) -> np.ndarray:
    """Encode ``(B, S)`` token windows into the cache; returns
    ``(B, vocab)`` logits of each window's last position.

    ``slots`` (default: all cache slots, in order) names one distinct
    slot per sequence; sequence ``b``'s tokens take positions
    ``[length, length + S)`` of its slot, so a window encoded from the
    start needs its slot reset first.  Logits are bit-identical to the
    last position of the uncached full-window forward over the slot's
    whole window.  Raises ``ValueError`` ("KV cache full") when
    a window would pass ``min(max_seq_len, cache.max_seq_len)``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    batch, seq = ids.shape
    slots = cache.check_slots(slots, batch, "prefill", "sequences")
    plan = _plan(model, cache)
    at = np.arange(batch) if slots is None else slots
    pos = cache.lengths[at][:, None] + np.arange(seq)
    return plan.run(
        ids.reshape(-1), np.repeat(at, seq), pos.reshape(-1),
        np.arange(seq - 1, batch * seq, seq),
    )


def decode(model, ids, cache, slots=None) -> np.ndarray:
    """Single-token KV-cached decode of ``model``; returns ``(B, vocab)``
    logits.

    ``ids`` holds the newest token id of each active sequence; ``slots``
    (default: all cache slots, in order) maps row ``j`` to its cache
    slot, one distinct slot per row.  Row ``j`` is embedded at absolute
    position ``cache.lengths[slots[j]]``, each block writes its K/V in
    place and attends over that slot's cached rows, and the cache
    lengths advance by one.  Logits are bit-identical to the last
    position of the uncached full-window forward over row ``j``'s window
    — and independent of which other sequences share the
    batch, which is what lets the scheduler admit and evict mid-flight
    without perturbing anyone's sampling.  Raises ``ValueError`` ("KV
    cache full") when a sequence is at ``min(max_seq_len,
    cache.max_seq_len)``.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    slots = cache.check_slots(slots, len(ids), "decode", "token ids")
    return _plan(model, cache).run(ids, slots)


_moe = runtime.direct(serve.MOE)


def _face(face, out, *ops):
    """A fallback item: an entry's direct face on the plan's operands,
    its result copied into the plan's buffer."""
    return P(lambda: np.copyto(out, face(*ops).reshape(out.shape), casting="no"))


#: Items are ``functools.partial`` objects, walked by C (``map`` drained
#: into a zero-length deque): a step runs no Python per item.
P, _CALL, _drain = partial, partial.__call__, deque(maxlen=0).extend
#: Where attention's ``np.exp`` runs: a step's scores differ in length.
_EXP = None


class _View:
    """A plan's step over ``n`` rows: the input rows it writes, the calls
    it walks — split where attention's ``np.exp`` runs — and the head."""

    __slots__ = ("ids", "slots", "pos", "lens", "every", "head", "segments",
                 "tail", "logits", "gemm_flops")


class ServingPlan:
    """``model``'s serving step over ``cache``, bound at the cache's
    capacity.  ``buffers`` lists every array a step writes besides its
    inputs: allocated here, for every row count alike."""

    def __init__(self, model, cache) -> None:
        self.model = model
        self._owners: list = [cache, cache]
        self._names: list = ["layers", "lengths"]
        self._values: list = [cache.layers, cache.lengths]
        self._entries: list = []
        self._bindings: list = []
        blocks = list(self._hold(model, "blocks"))
        if len(cache.layers) != len(blocks):
            raise ValueError(
                "the KV cache holds no K/V layers for this model (released?)"
                if not cache.layers else
                f"the KV cache has {len(cache.layers)} layers, the model {len(blocks)}"
            )

        attn0 = blocks[0].attn
        heads, d, hidden = attn0.num_heads, attn0.head_dim, model.hidden_size
        emb = self._hold(model, "tok_emb", "weight", "data")
        pos_emb = self._hold(model, "pos_emb", "weight", "data")
        dt = emb.dtype
        slots = cache.batch_slots
        #: Positions must stay below both the cache's rows and the model's.
        cap = self._cap = min(model.max_seq_len, cache.max_seq_len)
        rows = slots * cap  # the largest window: every slot full
        self._heads = heads
        self._lengths = cache.lengths
        self._views: dict = {}

        # Inputs, written per step.
        self._ids, self._slots, self._pos, self._lens = (
            np.zeros(rows, np.int64) for _ in range(4)
        )
        self._head_rows = np.zeros(slots, np.int64)
        self._every = np.arange(slots)
        # The step's buffers, shared by every block in turn.
        x, h, a = (np.empty((rows, 1, hidden), dt) for _ in range(3))
        qkv = np.empty((rows, 1, 3 * hidden), dt)
        q = np.empty((rows, heads, d), dt)
        ctx = np.empty((rows, hidden), dt)
        self._ln_scratch = np.empty(rows * hidden + rows + hidden, np.float32)
        # Every slot's rows at once read at most cap * (cap + 1) / 2 keys.
        self._scores = np.empty(heads * slots * cap * (cap + 1) // 2, np.float32)
        # The C calls hold these buffers' addresses: they live with the
        # plan (each bound MoE layer adds its own).
        self.buffers = [x, h, a, qkv, q, ctx, self._ln_scratch, self._scores]
        self._x, self._h, self._a = x, h, a

        self._native = 0  # C crossings a step makes outside the MoE items
        # Counted per step: qkv (3H) and proj (H) per block, the head (a
        # dense FFN adds its two).
        self._gemm_calls = 2 * len(blocks) + 1
        self._row_flops = len(blocks) * 2 * hidden * 4 * hidden
        scale = float(1.0 / np.sqrt(d))
        items = [self._embed(emb, pos_emb, x, a)]
        for block, kv in zip(blocks, cache.layers):
            attn = self._hold(block, "attn")
            if type(attn) is not CausalSelfAttention:
                raise TypeError(
                    f"KV-cached serving needs CausalSelfAttention blocks, not {type(attn).__name__}"
                )
            items.append(self._layer_norm(self._hold(block, "ln1"), x, h))
            items.append(self._linear(self._hold(attn, "qkv"), h, qkv))
            items.append(self._kv_write(kv, qkv.reshape(rows, 3, heads, d), q))
            items.append(self._attention(q, kv.k, kv.v, ctx, scale))
            items.append(self._linear(self._hold(attn, "proj"), ctx, a))
            items.append(_add(x, a))
            items.append(self._layer_norm(self._hold(block, "ln2"), x, h))
            items.append(self._ffn(self._hold(block, "ffn"), h, a))
            items.append(_add(x, a))
        self._items = items
        self._ln_f = self._layer_norm(self._hold(model, "ln_f"), x, h)

        if self._hold(model, "tie_embeddings"):
            self._head = lambda rows: P(np.einsum, "ij,kj->ik", rows, emb)
            vocab = emb.shape[0]
        else:
            head = self._hold(model, "lm_head", "weight", "data")
            self._head = lambda rows: P(kernels._gemm, rows, head, None)
            vocab = head.shape[1]
        # What :meth:`current` compares, in its order: each link read on
        # the way to a table, then each entry's binding.
        self._held = runtime.Binding(self._values + self._bindings)
        self._head_flops = 2 * hidden * vocab
        self._attn_calls = len(blocks)
        self._attn_flops_per_key = len(blocks) * 4 * heads * d

    # -- binding ---------------------------------------------------------
    # Each item is ``bind(n)``: the calls of a step over the buffers'
    # first ``n`` rows.
    def _hold(self, owner, *names):
        """``owner.<names[0]>.<names[1]>…``, every link of the chain held:
        a step checks each attribute is still the object read here."""
        for name in names:
            value = getattr(owner, name, None)
            self._owners.append(owner)
            self._names.append(name)
            self._values.append(value)
            owner = value
        return owner

    def _lib(self, entry, *ops):
        """The library to call ``entry``'s C on, or ``None`` for its face."""
        lib = runtime.native(entry, *ops)
        self._entries.append(entry)
        self._bindings.append(runtime.binding(entry))
        return lib

    def _embed(self, emb, pos_emb, x, a):
        ids, pos = self._ids, self._pos
        x2, a2 = x[:, 0], a[:, 0]

        def bind(n):
            xn, an = x2[:n], a2[:n]
            return [
                P(np.take, emb, ids[:n], 0, xn),
                P(np.take, pos_emb, pos[:n], 0, an),
                P(np.add, xn, an, xn),
            ]

        return bind

    def _layer_norm(self, ln, x, out):
        """``bind(n, x, out)``: the LayerNorm of ``x``'s first ``n`` rows
        into ``out``'s (by default the buffers it was bound on)."""
        w, b = self._hold(ln, "weight", "data"), self._hold(ln, "bias", "data")
        eps = self._hold(ln, "eps")
        lib = self._lib(layernorm.LN, x, w, b, eps)
        if lib is None:
            face = kernels.layer_norm
            return lambda n, x=x, out=out: [_face(face, out[:n], x[:n], w, b, eps)]
        self._native += 1
        fn, width, pw, pb = lib.repro_ln_fwd_f32, x.shape[-1], addr(w), addr(b)
        xhat = addr(self._ln_scratch)

        def bind(n, x=x, out=out):
            inv = xhat + 4 * n * width
            return [P(fn, addr(x), pw, pb, addr(out), xhat, inv, n, width, eps, inv + 4 * n)]

        return bind

    def _linear(self, linear, x, out):
        w = self._hold(linear, "weight", "data")
        bias = self._hold(linear, "bias")
        b = None if bias is None else self._hold(bias, "data")
        lib = self._lib(serve.GEMM, x, w, b)
        if lib is None:
            return lambda n: [_face(kernels._gemm, out[:n], x[:n], w, b)]
        self._native += 1
        k, m = w.shape
        bound = P(lib.repro_serve_gemm, addr(x), addr(w), None if b is None else addr(b), addr(out))
        return lambda n: [P(bound, n, k, m)]

    def _kv_write(self, kv, qkv4, q):
        """Each row's K and V into its slot at its position; its query
        into ``q``."""
        sl, pos = self._slots, self._pos

        def bind(n):
            at, now = sl[:n], pos[:n]
            return [
                P(kv.k.__setitem__, (at, Ellipsis, now), qkv4[:n, 1]),
                P(kv.v.__setitem__, (at, slice(None), now), qkv4[:n, 2]),
                P(np.copyto, q[:n], qkv4[:n, 0]),
            ]

        return bind

    def _attention(self, q, k, v, ctx, scale):
        sl, lens = self._slots, self._lens
        lib = self._lib(serve.ATTENTION, q, k, v, sl, lens, scale)
        if lib is None:
            face = kernels._attention
            return lambda n: [_face(face, ctx[:n], q[:n], k, v, sl[:n], lens[:n], scale)]
        self._native += 1
        heads, d = q.shape[1:]
        ps, pi, pn = addr(self._scores), addr(sl), addr(lens)
        scores = P(lib.repro_attn_scores, addr(q), addr(k), pi, pn, ps)
        context = P(lib.repro_attn_context, ps, addr(v), pi, pn, addr(ctx))
        cache = (k.shape[0], k.shape[3])

        def bind(n):
            shape = (n, heads, d, *cache)
            return [P(scores, *shape, scale), _EXP, P(context, *shape)]

        return bind

    def _ffn(self, ffn, h, out):
        h2, out2 = h[:, 0], out[:, 0]
        if type(ffn) is MLP:
            return self._mlp(ffn, h, out)
        if not isinstance(ffn, (dMoE, MoELayer)):
            raise TypeError(f"KV-cached serving has no plan for a {type(ffn).__name__} FFN")
        if type(ffn.router) is not Router:  # any other routes as a module
            raise TypeError(f"KV-cached serving has no plan for a {type(ffn.router).__name__}")
        lib = self._lib(serve.MOE, ffn, h2)
        steps = None if lib is None else serve.moe_layer_step(lib, ffn, h2, out2)
        if steps is None:
            return lambda n: [_face(_moe, out2[:n], ffn, h2[:n])]
        # What the bound step read: its router and settings, its tables —
        # the int8 ones while they are attached.
        router = self._hold(ffn, "router")
        for owner, name in ((ffn, "activation"), (router, "top_k"),
                            (router, "normalize_weights")):
            self._hold(owner, name)
        self._hold(router, "proj", "weight", "data")
        experts = self._hold(ffn, "experts")
        for name in ("w1", "b1", "w2", "b2"):
            self._hold(experts, name, "data")
        quantized = self._hold(ffn, "_quantized")
        for name in ("q1", "s1", "b1", "q2", "s2", "b2") if quantized else ():
            self._hold(quantized, name)
        self.buffers += steps.buffers
        return lambda n: [P(_moe_item, steps(n), ffn, h2[:n], out2[:n])]

    def _mlp(self, mlp, h, out):
        """``fc2(act(fc1(h)))``: two ``serve_gemm`` items around the
        activation, over a buffer of ``ffn_hidden`` columns."""
        f = np.empty(h.shape[:2] + (mlp.ffn_hidden_size,), h.dtype)
        self.buffers.append(f)
        fc1 = self._linear(self._hold(mlp, "fc1"), h, f)
        act = ACTIVATIONS[self._hold(mlp, "activation")]
        fc2 = self._linear(self._hold(mlp, "fc2"), f, out)
        self._gemm_calls += 2
        self._row_flops += 4 * h.shape[-1] * f.shape[-1]
        return lambda n: fc1(n) + [P(_activate, act, f[:n])] + fc2(n)

    def _view(self, n: int, b: int) -> _View:
        """The step over ``n`` rows, ``b`` of them head rows (``0``:
        every row gets the head)."""
        view = _View()
        view.ids, view.slots, view.pos, view.lens = (
            a[:n] for a in (self._ids, self._slots, self._pos, self._lens)
        )
        view.every = self._every[:n] if n <= len(self._every) else None
        calls = [call for item in self._items for call in item(n)]
        x, h, a = self._x, self._h, self._a
        if b:
            # Only each sequence's last row reaches the head: gather them.
            view.head = self._head_rows[:b]
            calls.append(P(np.take, x[:n, 0], view.head, 0, h[:b, 0]))
            calls += self._ln_f(b, h, a)
            view.logits = self._head(a[:b, 0])
        else:
            view.head = None
            calls += self._ln_f(n)
            view.logits = self._head(h[:n, 0])
        view.segments, segment = [], []
        for call in calls:
            if call is _EXP:
                view.segments.append(tuple(segment))
                segment = []
            else:
                segment.append(call)
        view.tail = tuple(segment)
        view.gemm_flops = self._row_flops * n + self._head_flops * (b or n)
        return view

    # -- stepping --------------------------------------------------------
    def current(self) -> bool:
        """Every held array, table and binding is still the live one."""
        return self._held.current(chain(
            map(getattr, self._owners, self._names, repeat(None)),
            map(runtime.current_binding, self._entries),
        ))

    def run(self, ids: np.ndarray, slots, pos=None, head=None) -> np.ndarray:
        """One step over ``n = len(ids)`` rows: ``(rows, vocab)`` logits of
        the head rows, a fresh array.

        ``slots`` is each row's checked slot (``None``: every slot, in
        order, one row each); ``pos`` each row's position (``None``: its
        slot's length); ``head`` the rows that get the head, each
        sequence's last (``None``: every row).  Each head row's slot
        ends the step at that row's position + 1."""
        n = len(ids)
        if n < 1:
            raise ValueError("a serving step needs at least one row")
        if pos is not None and pos.max() >= self._cap:
            raise self._full()
        key = n if head is None else (n, len(head))
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = self._view(n, 0 if head is None else len(head))
        sl, at, lens = view.slots, view.pos, view.lens
        sl[:] = view.every if slots is None else slots
        if pos is None:
            np.take(self._lengths, sl, out=at)
            if at.max() >= self._cap:
                raise self._full()
        else:
            at[:] = pos
        if head is not None:
            view.head[:] = head
        view.ids[:] = ids
        np.add(at, 1, out=lens)
        total = int(lens.sum())
        scores = self._scores[: self._heads * total]
        for segment in view.segments:
            _drain(map(_CALL, segment))
            np.exp(scores, scores)
        _drain(map(_CALL, view.tail))
        logits = view.logits()
        if head is None:
            self._lengths[sl] = lens
        else:
            self._lengths[sl[head]] = lens[head]
        _DIRECT.value += self._native
        _GEMM_CALLS.value += self._gemm_calls
        _GEMM_FLOPS.value += view.gemm_flops
        _ATTN_CALLS.value += self._attn_calls
        _ATTN_FLOPS.value += self._attn_flops_per_key * total
        return logits

    def _full(self) -> ValueError:
        return ValueError(
            "KV cache full: a sequence is at max_seq_len "
            f"({self._cap}); slide the window (re-prefill) first"
        )


def _add(x, a):
    return lambda n: [P(np.add, x[:n], a[:n], x[:n])]


def _activate(act, h):
    """A dense FFN's activation, in place."""
    np.copyto(h, act(Tensor(h)).data, casting="no")


def _moe_item(step, layer, x, out):
    """``serve_moe`` bound to the plan's rows; a decline runs the
    layer's reference into the same buffer."""
    if step():
        _DIRECT.value += 1
    else:
        np.copyto(out, moe_forward_ref(layer, x), casting="no")
