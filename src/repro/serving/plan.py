"""The decode plan: a KV-cached decode step bound once per row count.

A decode step of a ``TransformerLM`` makes the same calls on every token
— per block a LayerNorm, the QKV GEMM, the K/V append, attention, the
output GEMM, a residual add, a LayerNorm, the FFN and a residual add;
then the final LayerNorm and the head — and only the token ids,
positions and slots change.  :class:`DecodePlan` walks the model's
modules once, for one cache and one row count, and holds every buffer of
the step, each C call of the kernel table's direct entries (``ln``,
``serve_gemm``, ``attn_rows``, ``serve_moe``) with its pointers
converted once, and the NumPy calls between them (embedding gathers,
``np.exp`` over attention's ``heads * sum(lengths)`` scores, residual
adds, K/V appends, the tied head's ``einsum``) — each the call the
modules make, on the same operands, so the plan moves no bit.  A step
writes the ids, slots and positions into the plan's input arrays and
walks one flat tuple of prebound calls.

- *Bound once*: each entry's contract, on the operands the plan holds
  (:func:`repro.autograd.lower.runtime.native`).  An entry pinned to its
  reference, or an operand outside its contract, makes that item the
  entry's direct face on the same buffers, copied into the plan's; a
  block FFN with no direct-entry decomposition (a dense ``MLP``, an MoE
  layer without the plain ``Router`` or GELU experts) is one item, its
  own inference ``forward``.  Building counts nothing.
- *Checked every step* (:meth:`DecodePlan.current`): every attribute the
  plan read on its way from the model to a table is still the object it
  read — the module links (``model.blocks``, ``block.attn`` / ``ln1`` /
  ``ln2`` / ``ffn``, ``attn.qkv``, ``linear.weight``, ``router.proj``,
  ``ffn.experts``, …) and each table's ``data`` alike; an MoE layer
  bound to ``serve_moe`` keeps its router, settings and ``_quantized``
  tables, a LayerNorm its ``eps``; the cache still holds its K/V layers
  (:meth:`KVCache.release` drops them); every entry keeps its binding.
  A stale plan is rebuilt.  Then the data guards: one distinct integer
  slot per token id, in ``[0, batch_slots)`` (:meth:`KVCache.check_slots`),
  and positions below ``min(model.max_seq_len, cache.max_seq_len)``, all
  before any write.
- *A runner that declines mid-step* (``repro_moe_route`` on a non-finite
  logit) runs that layer's reference into the same buffer, counting
  nothing, as the direct face does.

The buffers hold the embedding table's dtype, and a fallback result of
another dtype raises ``TypeError`` rather than cast.  A step returns
fresh logits, and leaves each MoE layer's ``last_routing`` in arrays no
later step writes.  Dropout is the identity: decode serves an eval-mode
model.
"""

from __future__ import annotations

from itertools import repeat
from operator import is_

import numpy as np

from repro.autograd.lower import runtime
from repro.autograd.lower.kernels import layernorm, serve
from repro.autograd.lower.kernels.base import addr
from repro.autograd.tensor import Tensor
from repro.core.dmoe import dMoE
from repro.moe.inference import moe_forward_ref
from repro.moe.moe_layer import MoELayer
from repro.nn.attention import CausalSelfAttention
from repro.observability.metrics import registry
from repro.serving import kernels

_DIRECT, _GEMM_CALLS, _GEMM_FLOPS, _ATTN_CALLS, _ATTN_FLOPS = (
    registry().counter(name)
    for name in (
        "lower_direct_calls", "serve_gemm_calls", "serve_gemm_flops",
        "serve_attn_calls", "serve_attn_flops",
    )
)


def decode(model, ids, cache, slots=None) -> np.ndarray:
    """Single-token KV-cached decode of ``model`` (inside
    ``inference_mode``); returns ``(B, vocab)`` logits.

    ``ids`` holds the newest token id of each active sequence; ``slots``
    (default: all cache slots, in order) maps row ``j`` to its cache
    slot, one distinct slot per row.  Row ``j`` is embedded at absolute
    position ``cache.lengths[slots[j]]``, each block appends its K/V in
    place and attends over that slot's cached rows, and the cache
    lengths advance by one.  Logits are bit-identical to row ``j``'s last
    position under ``model.forward`` over the same window inside
    inference_mode — and independent of which other sequences share the
    batch, which is what lets the scheduler admit and evict mid-flight
    without perturbing anyone's sampling.

    The step runs the cache's :class:`DecodePlan` for this row count,
    built (or rebuilt) when missing or stale: the blocks' calls bound
    once, replayed per token.  Raises ``ValueError`` ("KV cache full")
    when a sequence is at ``min(max_seq_len, cache.max_seq_len)``.
    """
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    rows = len(ids)
    slots = cache.check_slots(slots, rows, "decode", "token ids")
    plan = cache.plans.get(rows)
    if plan is None or plan.model is not model or not plan.current():
        plan = cache.plans[rows] = DecodePlan(model, cache, rows)
    return plan.run(ids, slots)


def _face(face, out, *ops):
    """A fallback item: an entry's direct face on the plan's operands,
    its result copied into the plan's buffer."""
    return lambda: np.copyto(out, face(*ops).reshape(out.shape), casting="no")


class DecodePlan:
    """``model``'s decode step over ``rows`` slots of ``cache``, bound."""

    def __init__(self, model, cache, rows: int) -> None:
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
        if rows < 1:
            raise ValueError("a decode step needs at least one row")

        attn0 = blocks[0].attn
        heads, d, hidden = attn0.num_heads, attn0.head_dim, model.hidden_size
        emb = self._hold(model, "tok_emb", "weight", "data")
        pos_emb = self._hold(model, "pos_emb", "weight", "data")
        dt = emb.dtype
        cap = cache.max_seq_len
        self._heads = heads
        #: Positions must stay below both the cache's rows and the model's.
        self._cap = min(model.max_seq_len, cap)
        self._lengths = cache.lengths

        # Inputs, written per step.
        ids, sl, pos, lens = (np.zeros(rows, np.int64) for _ in range(4))
        self._ids, self._slots, self._pos, self._lens = ids, sl, pos, lens
        self._every = np.arange(rows)
        # The step's buffers, shared by every block in turn.
        x, h, a = (np.empty((rows, 1, hidden), dt) for _ in range(3))
        x2, h2, a2 = (b.reshape(rows, hidden) for b in (x, h, a))
        qkv = np.empty((rows, 1, 3 * hidden), dt)
        qkv4 = qkv.reshape(rows, 3, heads, d)
        q = np.empty((rows, heads, d), dt)
        ctx = np.empty((rows, hidden), dt)
        self._ln_scratch = np.empty(rows * hidden + rows + hidden, np.float32)
        self._scores = np.empty(heads * rows * cap, np.float32)
        #: ``np.exp``'s operands: the scores' first ``heads * sum(lengths)``.
        self._exp = [self._scores, self._scores]
        # The C calls hold these buffers' addresses: they live with the plan.
        self._buffers = (x, h, a, qkv, q, ctx)

        calls = [
            (np.take, (emb, ids, 0, x2)),
            (np.take, (pos_emb, pos, 0, a2)),
            (np.add, (x2, a2, x2)),
        ]
        self._native = 0  # C crossings a step makes outside the MoE items
        gemm_flops = 0
        for block, layer_kv in zip(blocks, cache.layers):
            attn = self._hold(block, "attn")
            if type(attn) is not CausalSelfAttention:
                raise TypeError(
                    f"KV-cached decode needs CausalSelfAttention blocks, not {type(attn).__name__}"
                )
            k_cache, v_cache = layer_kv.k, layer_kv.v
            calls.append(self._layer_norm(self._hold(block, "ln1"), x, h))
            calls.append(self._linear(self._hold(attn, "qkv"), h, qkv))
            calls += [
                (k_cache.__setitem__, ((sl, Ellipsis, pos), qkv4[:, 1])),
                (v_cache.__setitem__, ((sl, slice(None), pos), qkv4[:, 2])),
                (np.copyto, (q, qkv4[:, 0])),
            ]
            calls += self._attention(q, k_cache, v_cache, ctx, attn._scale())
            calls.append(self._linear(self._hold(attn, "proj"), ctx, a))
            calls.append((np.add, (x, a, x)))
            calls.append(self._layer_norm(self._hold(block, "ln2"), x, h))
            calls.append(self._ffn(self._hold(block, "ffn"), h, a, h2, a2))
            calls.append((np.add, (x, a, x)))
            gemm_flops += 2 * rows * hidden * 4 * hidden  # qkv (3H) + proj (H)
        calls.append(self._layer_norm(self._hold(model, "ln_f"), x, h))
        self._calls = tuple(calls)

        if self._hold(model, "tie_embeddings"):
            self._head, self._head_args = np.einsum, ("ij,kj->ik", h2, emb)
            vocab = emb.shape[0]
        else:
            head = self._hold(model, "lm_head", "weight", "data")
            self._head, self._head_args = kernels._gemm, (h2, head, None)
            vocab = head.shape[1]
        self._gemm_calls = 2 * len(blocks) + 1
        self._gemm_flops = gemm_flops + 2 * rows * hidden * vocab
        self._attn_calls = len(blocks)
        self._attn_flops_per_key = len(blocks) * 4 * heads * d

    # -- binding ---------------------------------------------------------
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

    def _layer_norm(self, ln, x, out):
        w, b = self._hold(ln, "weight", "data"), self._hold(ln, "bias", "data")
        eps = self._hold(ln, "eps")
        lib = self._lib(layernorm.LN, x, w, b, eps)
        if lib is None:
            return _face(kernels.layer_norm, out, x, w, b, eps), ()
        self._native += 1
        rows, width = x.size // x.shape[-1], x.shape[-1]
        xhat = addr(self._ln_scratch)
        inv = xhat + 4 * x.size
        return lib.repro_ln_fwd_f32, (
            addr(x), addr(w), addr(b), addr(out), xhat, inv, rows, width,
            eps, inv + 4 * rows,
        )

    def _linear(self, linear, x, out):
        w = self._hold(linear, "weight", "data")
        bias = self._hold(linear, "bias")
        b = None if bias is None else self._hold(bias, "data")
        lib = self._lib(serve.GEMM, x, w, b)
        if lib is None:
            return _face(kernels._gemm, out, x, w, b), ()
        self._native += 1
        k, n = w.shape
        return lib.repro_serve_gemm, (
            addr(x), addr(w), None if b is None else addr(b), addr(out), x.size // k, k, n,
        )

    def _attention(self, q, k, v, ctx, scale):
        sl, lens = self._slots, self._lens
        lib = self._lib(serve.ATTENTION, q, k, v, sl, lens, scale)
        if lib is None:
            return [(_face(kernels._attention, ctx, q, k, v, sl, lens, scale), ())]
        self._native += 1
        rows, heads, d = q.shape
        ps, pi, pn = addr(self._scores), addr(sl), addr(lens)
        shape = (rows, heads, d, k.shape[0], k.shape[3])
        return [
            (lib.repro_attn_scores, (addr(q), addr(k), pi, pn, ps, *shape, scale)),
            (np.exp, self._exp),
            (lib.repro_attn_context, (ps, addr(v), pi, pn, addr(ctx), *shape)),
        ]

    def _ffn(self, ffn, h, out, h2, out2):
        if isinstance(ffn, (dMoE, MoELayer)):
            lib = self._lib(serve.MOE, ffn, h2)
            step = None if lib is None else serve.moe_layer_step(lib, ffn, h2, out2)
            if step is not None:
                # What the bound step read: its router and settings, its
                # tables — the int8 ones while they are attached.
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
                return _moe_item(step, ffn, h2, out2), ()

        def generic():
            y = ffn(Tensor(h))
            np.copyto(out, (y[0] if isinstance(y, tuple) else y).data, casting="no")

        return generic, ()

    # -- stepping --------------------------------------------------------
    def current(self) -> bool:
        """Every held array, table and binding is still the live one."""
        return all(
            map(is_, map(getattr, self._owners, self._names, repeat(None)), self._values)
        ) and all(map(is_, map(runtime.current_binding, self._entries), self._bindings))

    def run(self, ids: np.ndarray, slots) -> np.ndarray:
        """One step over checked ``slots`` (``None``: every slot):
        ``(rows, vocab)`` logits, a fresh array."""
        sl, pos, lens = self._slots, self._pos, self._lens
        self._ids[:] = ids
        sl[:] = self._every if slots is None else slots
        np.take(self._lengths, sl, out=pos)
        if pos.max() >= self._cap:
            raise ValueError(
                "KV cache full: a sequence is at max_seq_len "
                f"({self._cap}); slide the window (re-prefill) first"
            )
        np.add(pos, 1, out=lens)
        total = int(lens.sum())
        self._exp[0] = self._exp[1] = self._scores[: self._heads * total]
        for fn, args in self._calls:
            fn(*args)
        logits = self._head(*self._head_args)
        self._lengths[sl] = lens
        _DIRECT.value += self._native
        _GEMM_CALLS.value += self._gemm_calls
        _GEMM_FLOPS.value += self._gemm_flops
        _ATTN_CALLS.value += self._attn_calls
        _ATTN_FLOPS.value += self._attn_flops_per_key * total
        return logits


def _moe_item(step, layer, x, out):
    """``serve_moe`` bound to the plan's rows; a decline runs the
    layer's reference into the same buffer."""

    def run():
        if step():
            _DIRECT.value += 1
        else:
            np.copyto(out, moe_forward_ref(layer, x), casting="no")

    return run
