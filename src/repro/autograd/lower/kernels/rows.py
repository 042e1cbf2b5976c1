"""Row movement: the MoE gather/scatter pair, the embedding lookup and
``__getitem__``.

``repro_zero_scat_add_f32`` replicates ``_scatter_add_rows`` on the
``idx >= 0`` subset: ``np.add.at``'s strictly sequential loop below 16
rows, else the stable-sort + ``np.add.reduceat`` path, where each
segment reduces as ``first + pairwise(rest)`` (the single-row case must
*not* add ``0.0f`` — that would flip ``-0.0``).  It is the forward of
``scatter`` and the backward of ``gather``, ``embed`` and the row-id
``getitem``.
"""

from __future__ import annotations

from operator import is_

import numpy as np

from repro.autograd import arena
from repro.autograd import ops_basic as _B
from repro.autograd import ops_nn as _N
from repro.autograd.graph import _CONST
from repro.autograd.lower.kernels.base import (
    F4, I64, Arr, Capture, Const, Contract, Kernel, Live, Rel, addr, f32, i64,
    ids_below, ids_within, keeper, ndarray,
)

_SCATTER_C = r"""
/* memset(out) then _scatter_add_rows(out, idx[idx>=0], rows[idx>=0]).
   scratch: nout+1 cursor slots followed by up to n order slots. */
void repro_zero_scat_add_f32(float *restrict out, const i64 *restrict idx,
                             const float *restrict rows,
                             i64 n, i64 h, i64 nout, i64 *scratch)
{
    memset(out, 0, (size_t)(nout * h) * sizeof(float));
    i64 nv = 0;
    for (i64 i = 0; i < n; i++)
        if (idx[i] >= 0) nv++;
    if (nv == 0) return;
    if (nv < 16) {
        /* np.add.at: strictly sequential in (filtered) order. */
        for (i64 i = 0; i < n; i++) {
            i64 t = idx[i];
            if (t < 0) continue;
            float *o = out + t * h;
            const float *r = rows + i * h;
            for (i64 j = 0; j < h; j++) o[j] += r[j];
        }
        return;
    }
    /* Stable counting sort == argsort(kind="stable") + segment bounds. */
    i64 *counts = scratch;
    i64 *order = scratch + nout + 1;
    for (i64 t = 0; t <= nout; t++) counts[t] = 0;
    for (i64 i = 0; i < n; i++)
        if (idx[i] >= 0) counts[idx[i] + 1]++;
    for (i64 t = 0; t < nout; t++) counts[t + 1] += counts[t];
    for (i64 i = 0; i < n; i++) {
        i64 t = idx[i];
        if (t >= 0) order[counts[t]++] = i;
    }
    for (i64 t = 0; t < nout; t++) {
        i64 s = t ? counts[t - 1] : 0;
        i64 e = counts[t];
        i64 len = e - s;
        if (len <= 0) continue;
        float *o = out + t * h;
        const float *r0 = rows + order[s] * h;
        if (len == 1) {
            for (i64 j = 0; j < h; j++) o[j] += r0[j];
        } else {
            for (i64 j = 0; j < h; j++)
                o[j] += r0[j] + pw32g(rows, order, s + 1, len - 1, h, j);
        }
    }
}

/* _ScatterRows.backward: gx = zeros(n, h); gx[i] = g[ids[i]] if ids[i]>=0. */
void repro_gather_assign_f32(const float *restrict g, const i64 *restrict ids,
                             float *restrict gx,
                             i64 n, i64 h)
{
    memset(gx, 0, (size_t)(n * h) * sizeof(float));
    for (i64 i = 0; i < n; i++) {
        i64 t = ids[i];
        if (t >= 0)
            memcpy(gx + i * h, g + t * h, (size_t)h * sizeof(float));
    }
}
"""

_GATHER_C = r"""
/* _GatherRows.forward: out[i] = x[max(ids[i],0)], zeroed where ids<0. */
void repro_gather_rows_f32(const float *restrict x, const i64 *restrict ids,
                           float *restrict out,
                           i64 n, i64 h)
{
    for (i64 i = 0; i < n; i++) {
        i64 t = ids[i];
        if (t < 0)
            memset(out + i * h, 0, (size_t)h * sizeof(float));
        else
            memcpy(out + i * h, x + t * h, (size_t)h * sizeof(float));
    }
}
"""

_EMBED_C = r"""
/* _Embedding.forward: plain row take (ids pre-checked in bounds). */
void repro_embed_rows_f32(const float *restrict w, const i64 *restrict ids,
                          float *restrict out,
                          i64 n, i64 h)
{
    for (i64 i = 0; i < n; i++)
        memcpy(out + i * h, w + ids[i] * h, (size_t)h * sizeof(float));
}
"""

_GETITEM_C = r"""
/* _GetItem.backward router pattern: flat = i0*ncol + i1, then the h==1
   zero+scatter-add.  scratch: n flat slots, nout+1 cursors, n order. */
void repro_getitem_flat_f32(float *restrict out, const i64 *restrict i0,
                            const i64 *restrict i1,
                            const float *restrict g, i64 n, i64 ncol, i64 nout,
                            i64 *scratch)
{
    i64 *flat = scratch;
    for (i64 i = 0; i < n; i++) flat[i] = i0[i] * ncol + i1[i];
    repro_zero_scat_add_f32(out, flat, g, n, 1, nout, scratch + n);
}
"""


# -- scatter -----------------------------------------------------------
def _scatter_forward(b):
    cfn = b.lib.repro_zero_scat_add_f32
    iscratch = b.iscratch
    ptr = b.operands.args
    held, at, hold = b.holds(2)
    keep = keeper()

    def run(x, ids, num_rows):
        ids64 = ids.astype(np.int64, copy=False)
        n, h = x.shape
        out = arena.empty((num_rows, h), F4)
        scr = iscratch(num_rows + 1 + n)
        cfn(at[0] if out is held[0] else hold(0, out),
            ptr[1] if ids64 is ids else addr(ids64), ptr[0],
            n, h, num_rows, at[1] if scr is held[1] else hold(1, scr))
        return (ids64, keep(x.shape)), out

    return run


def _scatter_backward(b):
    cfn = b.lib.repro_gather_assign_f32
    ptr = b.operands.args
    held, at, hold = b.holds(1)

    def run(g, ids, shape):
        gx = arena.empty(tuple(shape), F4, ids)
        cfn(ptr[0], ptr[1], at[0] if gx is held[0] else hold(0, gx),
            ids.size, shape[1])
        return (gx,)

    return run


# -- gather, embed -----------------------------------------------------
def _take_forward(symbol):
    """``out[i] = x[ids[i]]`` for ids of any shape; the two symbols
    differ in what a negative id means (a zero row / not admitted)."""

    def build(b):
        cfn = getattr(b.lib, symbol)
        ptr = b.operands.args
        held, at, hold = b.holds(1)
        keep = keeper()

        def run(x, ids):
            ids64 = ids.astype(np.int64, copy=False)
            h = x.shape[1]
            out = arena.empty(ids64.shape + (h,), F4, ids)
            cfn(ptr[0], ptr[1] if ids64 is ids else addr(ids64),
                at[0] if out is held[0] else hold(0, out), ids64.size, h)
            return (keep(x.shape), ids64), out

        return run

    return build


def _rows_backward(b):
    """``gather`` and ``embed``: zero + scatter-add of the gradient
    rows into the saved ``shape``."""
    cfn = b.lib.repro_zero_scat_add_f32
    iscratch = b.iscratch
    ptr = b.operands.args
    held, at, hold = b.holds(2)

    def run(g, shape, ids):
        n = ids.size
        gx = arena.empty(shape, F4)
        scr = iscratch(shape[0] + 1 + n)
        cfn(at[0] if gx is held[0] else hold(0, gx), ptr[2], ptr[0],
            n, shape[1], shape[0], at[1] if scr is held[1] else hold(1, scr))
        return (gx,)

    return run


# -- getitem -----------------------------------------------------------
#: Index types of a basic (viewing) index.
_BASIC = (slice, int, type(Ellipsis))


def _getitem_forward(b):
    # A Python closure: the forward is a view or a fancy take either
    # way; the win is the C scatter in backward.  A row take — a
    # routing-dependent one, ``b2[row_expert]`` — and the router's
    # ``scores[rows, ids]`` selection land in arena buffers, and the
    # pair is saved as the tuple saved last while its arrays are the
    # same: what a replay's units hold stays the same objects from one
    # replay to the next.  Any other index stays ``a[index]`` — a basic
    # one a view, which ``view`` below holds against its operand.
    keep = keeper()
    pair = [()]

    def run(a, index):
        if (
            type(index) is ndarray and index.ndim == 1 and a.ndim == 2
            and index.dtype.kind in "iu" and ids_within(index, a.shape[0])
        ):
            # In range: ``take`` writes ``out`` directly (its
            # bounds-checking mode would stage a copy first).
            out = arena.empty((index.size, a.shape[1]), a.dtype, index)
            np.take(a, index, axis=0, out=out, mode="wrap")
        else:
            out = a[index]
            if _is_pair(a.shape, index):
                taken, out = out, arena.empty(out.shape, out.dtype)
                np.copyto(out, taken)
                last = pair[0]
                if len(index) == len(last) and all(map(is_, index, last)):
                    index = last
                pair[0] = index
        return (keep(a.shape), index), out

    spec = b.rec.specs[1]
    index = spec[1] if spec[0] == _CONST else None
    if not all(type(i) in _BASIC for i in (index if type(index) is tuple else (index,))):
        return run
    # A frozen basic index (slices, integers) views its operand: the view
    # is held against the operand, like the view ops' (views.py).
    held, at, _ = b.holds(1)

    def view(a, index):
        if a is not held[0]:
            res = run(a, index)
            if type(res[1]) is not ndarray:  # a scalar copy: nothing to hold
                return res
            held[0], at[0] = a, res
        return at[0]

    return view


def _is_pair(shape, index) -> bool:
    """The router's ``scores[rows, expert_ids]`` selection."""
    return (
        type(index) is tuple
        and len(index) == 2
        and len(shape) == 2
        and isinstance(index[0], ndarray)
        and isinstance(index[1], ndarray)
        and index[0].shape == index[1].shape
        and index[0].dtype.kind in "iu"
        and index[1].dtype.kind in "iu"
    )


def _getitem_pattern(g, shape, index) -> bool:
    if _is_pair(shape, index):
        return g.shape == index[0].shape
    return (
        isinstance(index, ndarray)
        and index.ndim == 1
        and index.dtype.kind in "iu"
        and len(shape) == 2
        and g.shape == (index.shape[0],) + tuple(shape[1:])
    )


def _getitem_in_range(g, shape, index) -> bool:
    if type(index) is tuple:
        return ids_within(index[0], shape[0]) and ids_within(index[1], shape[1])
    return ids_within(index, shape[0])


def _getitem_backward(b):
    flat_fn = b.lib.repro_getitem_flat_f32
    scat_fn = b.lib.repro_zero_scat_add_f32
    iscratch = b.iscratch
    ptr = b.operands.args
    held, at, hold = b.holds(2)

    def run(g, shape, index):
        out = arena.empty(shape, F4)
        po = at[0] if out is held[0] else hold(0, out)
        if type(index) is tuple:
            i0 = np.ascontiguousarray(index[0], np.int64)
            i1 = np.ascontiguousarray(index[1], np.int64)
            n = i0.size
            nout = shape[0] * shape[1]
            scr = iscratch(n + nout + 1 + n)
            flat_fn(po, addr(i0), addr(i1), ptr[0], n, shape[1], nout,
                    at[1] if scr is held[1] else hold(1, scr))
        else:
            rows = np.ascontiguousarray(index, np.int64)
            n = rows.size
            scr = iscratch(shape[0] + 1 + n)
            scat_fn(po, addr(rows), ptr[0], n, shape[1], shape[0],
                    at[1] if scr is held[1] else hold(1, scr))
        return (out,)

    return run


def _fuzz_rows(rng):
    n = int(rng.choice([5, 40]))  # either side of the 16-row sort switch
    return f32(rng, 9, 6), i64(rng, n, -1, 9)


def _fuzz_scatter(rng):
    n = int(rng.choice([5, 40]))
    return f32(rng, n, 6), i64(rng, n, -1, 9), 9


def _fuzz_getitem(rng):
    if rng.random() < 0.5:
        return f32(rng, 9, 6), i64(rng, 24, 0, 9)
    return f32(rng, 9, 6), (i64(rng, (9, 1), 0, 9), i64(rng, (9, 1), 0, 6))


KERNELS = (
    Kernel(
        "scatter", _N._ScatterRows,
        source=_SCATTER_C,
        contract=Contract(
            Arr(0, rank=2),
            Arr(1, "iu", rank=1),
            Const(2),
            Rel("one id per row", lambda x, ids, n: ids.shape[0] == x.shape[0]),
            Live("ids below num_rows", lambda x, ids, n: ids_below(ids, n)),
        ),
        forward=_scatter_forward,
        bwd_guard=Contract(
            Arr(0, rank=2),
            Arr(1, I64),
            Live("saved (n, h) input shape", lambda g, ids, shape: (
                len(shape) == 2 and shape[0] == ids.size
                and g.shape[1] == shape[1]
            )),
            Live("ids below the grad rows", lambda g, ids, shape: (
                ids_below(ids, g.shape[0])
            )),
        ),
        backward=_scatter_backward,
        fuzz=_fuzz_scatter,
    ),
    Kernel(
        "gather", _N._GatherRows,
        source=_GATHER_C,
        contract=Contract(
            Arr(0, rank=2),
            Arr(1, "iu", rank=1),
            Live("ids below the row count", lambda x, ids: ids_below(ids, x.shape[0])),
        ),
        forward=_take_forward("repro_gather_rows_f32"),
        bwd_guard=Contract(
            Arr(0),
            Arr(2, I64),
            Live("one grad row per id", lambda g, shape, ids: (
                len(shape) == 2 and g.shape == (ids.size,) + tuple(shape[1:])
            )),
            Live("ids below the row count", lambda g, shape, ids: (
                ids_below(ids, shape[0])
            )),
        ),
        backward=_rows_backward,
        fuzz=_fuzz_rows,
    ),
    Kernel(
        "embed", _N._Embedding,
        source=_EMBED_C,
        contract=Contract(
            Arr(0, rank=2, pin=True),
            Arr(1, "iu"),
            Live("ids within the table", lambda w, ids: ids_within(ids, w.shape[0])),
        ),
        forward=_take_forward("repro_embed_rows_f32"),
        bwd_guard=Contract(
            Arr(0),
            Arr(2, I64),
            Live("one grad row per id", lambda g, shape, ids: (
                len(shape) == 2 and g.shape == ids.shape + (shape[1],)
            )),
            Live("ids within the table", lambda g, shape, ids: (
                ids_within(ids, shape[0])
            )),
        ),
        backward=_rows_backward,
        fuzz=lambda rng: (f32(rng, 9, 6), i64(rng, (3, int(rng.choice([2, 14]))), 0, 9)),
    ),
    Kernel(
        "getitem_const", _B._GetItem,
        contract=Contract(Const(1)),
        forward=_getitem_forward,
        fuzz=lambda rng: (f32(rng, 9, 6), (slice(1, 7), slice(None, None, 2))),
    ),
    Kernel(
        "getitem_dyn", _B._GetItem,
        # What the C scatter of the backward swap can take.
        contract=Contract(Capture("2-D float32 base", lambda rec, v: (
            v[0] is not None and v[0].dtype is F4 and v[0].ndim == 2
        ))),
        forward=_getitem_forward,
        fuzz=_fuzz_getitem,
    ),
    Kernel(
        "getitem", _B._GetItem,
        source=_GETITEM_C,
        contract=Contract(),
        bwd_guard=Contract(
            Arr(0),
            Live("router pair or row ids", _getitem_pattern),
            Live("indices in range", _getitem_in_range),
        ),
        backward=_getitem_backward,
        fuzz=_fuzz_getitem,
    ),
)
