"""Block-sparse matrix products: SDD, DSD, DDS with all transpose variants.

These are the NumPy analogues of the CUDA kernels in MegaBlocks §5.1.  The
naming follows Triton's convention (output, left input, right input; "S"
sparse / "D" dense), so the eight products the paper needs are:

==========  =======================================  ======================
Operation   Call                                     Used for (2-layer MLP)
==========  =======================================  ======================
SDD         ``sdd(x, w1, topo)``                     layer-1 forward
DSD         ``dsd(h, w2)``                           layer-2 forward
SDD^T       ``sdd(dy, w2, topo, trans_b=True)``      layer-2 data grad
DS^TD       ``dsd(h, dy, trans_s=True)``             layer-2 weight grad
DSD^T       ``dsd(dh, w1, trans_b=True)``            layer-1 data grad
DD^TS       ``dds(x, dh, trans_a=True)``             layer-1 weight grad
DDS / DDS^T ``dds(a, s[, trans_s=True])``            completeness
==========  =======================================  ======================

Every op is served by one of two paths, chosen by
:mod:`repro.sparse.dispatch`:

- **Grouped-GEMM fast path**: when the topology decomposes into dense
  rectangular groups (the block-diagonal dMoE structure of Figure 3C),
  each group is one plain ``np.matmul`` over contiguous slices — no
  per-block gather, no scatter, no transpose-index walk.
- **Per-block path**: fully general.  Each "threadblock" (one output
  block) is one slice of a batched matmul; the gather patterns mirror
  the hardware kernels (COO ``row_indices`` for SDD per §5.1.3, the
  §5.1.4 transpose secondary index for ``trans_s``), and accumulation
  uses *segment reductions* (``np.add.reduceat`` over the BCSR /
  transpose row pointers, valid because both orders keep output rows
  sorted) instead of scatter-add.

The three products that touch layer-1 expert weights — SDD's right
operand, DSD^T's (``trans_b=True``) and DD^TS's output — also take the
weights *banded*: 3-D ``(G, K, N / G)``, one contiguous ``(K, N / G)``
matrix per expert, which is how ``ExpertWeights.w1`` is stored (see
"Banded operands" in :mod:`repro.sparse.dispatch`; ``dds(..., bands=G)``
asks for that output).  Both paths index the bands in place and return
the flat form's bits.

All ops accept an explicit ``dtype``; by default the output dtype is
``np.result_type(a.dtype, b.dtype)`` and is enforced on every path, so a
float32 network stays float32 end to end.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import arena
from repro.observability.tracing import span
from repro.sparse import dispatch, stats
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.topology import Topology

#: Shared span-args dicts: no per-call allocation on the tracing path.
_SPAN_GROUPED = {"dispatch": stats.PATH_GROUPED}
_SPAN_BLOCKED = {"dispatch": stats.PATH_BLOCKED}


def _products(op: str) -> tuple:
    """``op``'s ``(grouped, blocked)`` counter handles."""
    return stats.Product(op, stats.PATH_GROUPED), stats.Product(op, stats.PATH_BLOCKED)


_SDD = _products("sdd")
_DSD, _DSTD = _products("dsd"), _products("ds^td")
_DDS, _DDST = _products("dds"), _products("dds^t")


# ----------------------------------------------------------------------
# Block-view helpers.  All return *views* (no copies) over the dense
# operand, shaped so a fancy-index gather + batched matmul implements the
# per-threadblock work.
# ----------------------------------------------------------------------
def _check_multiple(n: int, bs: int, what: str) -> None:
    if n % bs:
        raise ValueError(f"{what}={n} is not a multiple of block_size={bs}")


def _row_block_view(a: np.ndarray, bs: int, transposed: bool) -> np.ndarray:
    """(num_row_blocks, bs, K) view of ``a`` (effective shape (M, K)).

    ``transposed`` means ``a`` is stored as (K, M) and used as A^T.
    """
    if transposed:
        k, m = a.shape
        _check_multiple(m, bs, "columns of transposed left operand")
        return a.reshape(k, m // bs, bs).transpose(1, 2, 0)
    m, k = a.shape
    _check_multiple(m, bs, "rows of left operand")
    return a.reshape(m // bs, bs, k)


def _col_block_view(b: np.ndarray, bs: int, transposed: bool) -> np.ndarray:
    """(num_col_blocks, K, bs) view of ``b`` (effective shape (K, N)).

    ``transposed`` means ``b`` is stored as (N, K) and used as B^T.
    """
    if transposed:
        n, k = b.shape
        _check_multiple(n, bs, "rows of transposed right operand")
        return b.reshape(n // bs, bs, k).transpose(0, 2, 1)
    if b.ndim == 3:  # banded: (G, blocks per band, K, bs), see _take
        g, k, w = b.shape
        _check_multiple(w, bs, "band width of right operand")
        return b.reshape(g, k, w // bs, bs).transpose(0, 2, 1, 3)
    k, n = b.shape
    _check_multiple(n, bs, "columns of right operand")
    return b.reshape(k, n // bs, bs).transpose(1, 0, 2)


def _stripe_view(b: np.ndarray, bs: int, transposed: bool) -> np.ndarray:
    """(num_stripes, bs, N) view of ``b`` (effective shape (K, N)), where
    stripe ``i`` is rows ``i*bs:(i+1)*bs`` of the effective matrix."""
    if transposed and b.ndim == 3:  # banded, see _take
        g, n, w = b.shape
        _check_multiple(w, bs, "band width of transposed operand")
        return b.reshape(g, n, w // bs, bs).transpose(0, 2, 3, 1)
    if transposed:
        n, k = b.shape
        _check_multiple(k, bs, "columns of transposed operand")
        return b.reshape(n, k // bs, bs).transpose(1, 2, 0)
    k, n = b.shape
    _check_multiple(k, bs, "rows of operand")
    return b.reshape(k // bs, bs, n)


def _take(view: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``view[ids]`` over the leading block axis; a banded operand's
    view has that axis split ``(band, block within band)``."""
    if view.ndim == 4:
        return view[ids // view.shape[1], ids % view.shape[1]]
    return view[ids]


def _stored_shape(b: np.ndarray, banded_ok: bool) -> tuple:
    """``(rows, columns)`` of a dense operand as stored: a banded
    ``(G, K, W)`` operand is the ``(K, G * W)`` matrix of its bands side
    by side, accepted only where the groups slice it by column."""
    if b.ndim == 3:
        if not banded_ok:
            raise ValueError(
                "a banded (3-D) operand is sliced by column: SDD takes it "
                "untransposed, DSD with trans_b=True"
            )
        g, k, w = b.shape
        return k, g * w
    return b.shape


def _out_dtype(a: np.ndarray, b: np.ndarray, dtype) -> np.dtype:
    """Requested output dtype, defaulting to the operands' common type.

    ``np.result_type`` on the *dtypes* (never the values) keeps float32
    inputs producing float32 outputs on every path.
    """
    if dtype is not None:
        return np.dtype(dtype)
    return np.result_type(a.dtype, b.dtype)


def segment_meta(topo: Topology, transpose: bool):
    """``(nonempty_rows, reduceat_starts)`` for one segment order, memoized
    in the topology's memo like the dispatch plan, so it lives exactly
    as long as the topology — which the builder LRU keeps hot across
    steps.
    """
    key = ("segment_meta", transpose)
    meta = topo.memo.get(key)
    if meta is None:
        offsets = topo.transpose_row_offsets if transpose else topo.row_offsets
        nonempty = np.flatnonzero(offsets[1:] > offsets[:-1])
        starts = offsets[nonempty].astype(np.intp)
        meta = topo.memo[key] = (nonempty, starts)
    return meta


def _segment_reduce(prod: np.ndarray, meta, out: np.ndarray) -> None:
    """Sum ``prod`` slices into ``out`` rows by the :func:`segment_meta`
    of the output order.

    ``prod`` must already be sorted by output row — true of BCSR order
    (``row_offsets``) and of transpose order (``transpose_row_offsets``)
    — which is what makes the scatter-free ``reduceat`` valid.  Empty
    segments are excluded (in the memoized metadata) because ``reduceat``
    would return the *next* element for them rather than zero.
    """
    nonempty, starts = meta
    if len(nonempty):
        out[nonempty] = np.add.reduceat(prod, starts, axis=0)


# ----------------------------------------------------------------------
# SDD: dense x dense -> sparse (sampled by the output topology)
# ----------------------------------------------------------------------
def sdd(
    a: np.ndarray,
    b: np.ndarray,
    topology: Topology,
    trans_a: bool = False,
    trans_b: bool = False,
    dtype=None,
) -> BlockSparseMatrix:
    """Compute ``(A op) @ (B op)`` only at the nonzero blocks of ``topology``.

    Grouped path: one GEMM per dense rectangular group, writing straight
    into the BCSR value layout.  Per-block path: one batched-matmul slice
    per nonzero block; the block's output coordinates come straight from
    the hybrid COO ``row_indices`` / ``column_indices`` (no search
    through ``row_offsets``, no threadblock over-launch — see §5.1.3 and
    the ablation in :mod:`repro.sparse.ablation`).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    bs = topology.block_size
    m_eff = a.shape[1] if trans_a else a.shape[0]
    k_a = a.shape[0] if trans_a else a.shape[1]
    k_b, n_eff = _stored_shape(b, banded_ok=not trans_b)
    if trans_b:
        k_b, n_eff = n_eff, k_b
    if (m_eff, n_eff) != topology.shape:
        raise ValueError(
            f"operand shapes {(m_eff, n_eff)} do not match topology "
            f"{topology.shape}"
        )
    if k_a != k_b:
        raise ValueError(f"inner dimensions disagree: {k_a} vs {k_b}")
    out_dtype = _out_dtype(a, b, dtype)

    plan = dispatch.analyze(topology)
    if dispatch.use_grouped(topology, plan, needs_disjoint_cols=False):
        with span("sdd", _SPAN_GROUPED):
            a_eff = a.T if trans_a else a
            b_eff = b.T if trans_b else b
            values = dispatch.grouped_sdd(a_eff, b_eff, topology, plan, out_dtype)
        stats.record_product(_SDD[0], topology, k_a)
        return BlockSparseMatrix(topology, values)

    with span("sdd", _SPAN_BLOCKED):
        a_blocks = _row_block_view(a, bs, trans_a)[topology.row_indices]
        b_blocks = _take(_col_block_view(b, bs, trans_b), topology.column_indices)
        values = np.matmul(a_blocks, b_blocks).astype(out_dtype, copy=False)
    stats.record_product(_SDD[1], topology, k_a)
    return BlockSparseMatrix(topology, values)


# ----------------------------------------------------------------------
# DSD: sparse x dense -> dense
# ----------------------------------------------------------------------
def dsd(
    s: BlockSparseMatrix,
    b: np.ndarray,
    trans_s: bool = False,
    trans_b: bool = False,
    dtype=None,
) -> np.ndarray:
    """Compute ``(S op) @ (B op)`` densely.

    Per-block path:

    - ``trans_s=False``: BCSR row iteration, segment-summed through
      ``row_offsets``.
    - ``trans_s=True`` (DS^TD, the weight-gradient op): the value array
      is walked through the transpose secondary index; per-block
      transposes happen in registers (``swapaxes`` on gathered views)
      and the segment sum rides ``transpose_row_offsets``.  This is the
      access pattern the paper notes has reduced spatial locality.

    Grouped path: one GEMM per group; ``trans_s`` transposes the group's
    dense block directly, skipping the transpose index entirely.
    """
    b = np.asarray(b)
    topo = s.topology
    bs = topo.block_size
    rows_s, cols_s = topo.shape
    m_eff, k_eff = (cols_s, rows_s) if trans_s else (rows_s, cols_s)
    k_b, n_eff = _stored_shape(b, banded_ok=trans_b)
    if trans_b:
        k_b, n_eff = n_eff, k_b
    if k_b != k_eff:
        raise ValueError(
            f"inner dimensions disagree: sparse gives {k_eff}, dense gives {k_b}"
        )
    out_dtype = _out_dtype(s.values, b, dtype)
    op_name, counts = ("ds^td", _DSTD) if trans_s else ("dsd", _DSD)

    plan = dispatch.analyze(topo)
    if dispatch.use_grouped(topo, plan, needs_disjoint_cols=trans_s):
        with span(op_name, _SPAN_GROUPED):
            b_eff = b.swapaxes(-1, -2) if trans_b else b
            out = dispatch.grouped_dsd(
                s.values, b_eff, topo, plan, trans_s, out_dtype
            )
        stats.record_product(counts[0], topo, n_eff)
        return out

    with span(op_name, _SPAN_BLOCKED):
        stripes = _stripe_view(b, bs, trans_b)
        out = arena.zeros((m_eff // bs, bs, n_eff), out_dtype)
        if topo.nnz_blocks:
            if trans_s:
                order = topo.transpose_block_offsets
                block_values = np.swapaxes(s.values[order], -1, -2)
                stripe_ids = topo.row_indices[order]
            else:
                block_values = s.values
                stripe_ids = topo.column_indices
            prod = np.matmul(block_values, _take(stripes, stripe_ids))
            _segment_reduce(prod, segment_meta(topo, trans_s), out)
    stats.record_product(counts[1], topo, n_eff)
    return out.reshape(m_eff, n_eff)


# ----------------------------------------------------------------------
# DDS: dense x sparse -> dense
# ----------------------------------------------------------------------
def dds(
    a: np.ndarray,
    s: BlockSparseMatrix,
    trans_a: bool = False,
    trans_s: bool = False,
    dtype=None,
    bands: Optional[int] = None,
) -> np.ndarray:
    """Compute ``(A op) @ (S op)`` densely; ``bands=G`` (``trans_s=False``
    only) returns the banded ``(G, M, N / G)`` form of the result.

    Per-block path:

    - ``trans_s=True`` (DDS^T) iterates block rows of S directly (BCSR).
    - ``trans_s=False`` needs S in column order, so it gathers through
      the transpose secondary index, like DSD's ``trans_s`` path.

    Both directions produce products sorted by output block *column*, so
    the accumulation is a segment reduction and the result is written
    directly into the output layout (no transposed staging copy).
    """
    a = np.asarray(a)
    topo = s.topology
    bs = topo.block_size
    rows_s, cols_s = topo.shape
    k_eff, n_eff = (cols_s, rows_s) if trans_s else (rows_s, cols_s)
    m_eff = a.shape[1] if trans_a else a.shape[0]
    k_a = a.shape[0] if trans_a else a.shape[1]
    if k_a != k_eff:
        raise ValueError(
            f"inner dimensions disagree: dense gives {k_a}, sparse gives {k_eff}"
        )
    if bands is not None and (trans_s or bands < 1 or n_eff % (bands * bs)):
        raise ValueError(
            f"bands={bands} needs trans_s=False and {n_eff} columns in "
            f"whole blocks of {bs} per band"
        )
    out_dtype = _out_dtype(a, s.values, dtype)
    op_name, counts = ("dds^t", _DDST) if trans_s else ("dds", _DDS)

    plan = dispatch.analyze(topo)
    if dispatch.use_grouped(topo, plan, needs_disjoint_cols=not trans_s):
        with span(op_name, _SPAN_GROUPED):
            a_eff = a.T if trans_a else a
            out = dispatch.grouped_dds(
                a_eff, s.values, topo, plan, trans_s, out_dtype, bands
            )
        stats.record_product(counts[0], topo, m_eff)
        return out

    with span(op_name, _SPAN_BLOCKED):
        # (num_stripes, M, bs) view: stripe i is columns i*bs:(i+1)*bs of
        # A_eff.
        if trans_a:
            stripes = a.reshape(k_a // bs, bs, m_eff).transpose(0, 2, 1)
        else:
            stripes = a.reshape(m_eff, k_a // bs, bs).transpose(1, 0, 2)

        per = n_eff // bs // (bands or 1)
        out = arena.zeros((bands or 1, m_eff, per, bs), out_dtype)
        if topo.nnz_blocks:
            if trans_s:
                block_values = np.swapaxes(s.values, -1, -2)
                stripe_ids = topo.column_indices
            else:
                order = topo.transpose_block_offsets
                block_values = s.values[order]
                stripe_ids = topo.row_indices[order]
            prod = np.matmul(stripes[stripe_ids], block_values)
            nonempty, starts = segment_meta(topo, not trans_s)
            if len(nonempty):
                # (segments, M, bs) summed in sorted column order, assigned
                # straight into the (band, col_block, M, bs) output view.
                out.transpose(0, 2, 1, 3)[nonempty // per, nonempty % per] = (
                    np.add.reduceat(prod, starts, axis=0)
                )
    stats.record_product(counts[1], topo, m_eff)
    if bands is not None:
        return out.reshape(bands, m_eff, n_eff // bands)
    return out.reshape(m_eff, n_eff)


# ----------------------------------------------------------------------
# Elementwise helpers on sparse values (used between SDD and DSD).
# ----------------------------------------------------------------------
def map_values(s: BlockSparseMatrix, fn) -> BlockSparseMatrix:
    """Apply an elementwise function to the nonzero values."""
    return BlockSparseMatrix(s.topology, fn(s.values))


def add_bias_live(
    values: np.ndarray, bias: np.ndarray, topo: Topology, out: np.ndarray
) -> np.ndarray:
    """``out = values + bias`` (bias broadcast per block column) with the
    pad rows of ``topo`` then set to ``+0.0``.  The one NumPy
    implementation behind :func:`add_bias_columns` and the autograd
    ``_SparseBiasAdd`` / ``_SparseBiasGelu`` forwards."""
    bs = topo.block_size
    per_block = bias.reshape(topo.block_cols, bs)[topo.column_indices]
    np.add(values, per_block[:, None, :], out=out)
    dispatch.live_layout(topo).zero_pad_rows(out)
    return out


def add_bias_columns(s: BlockSparseMatrix, bias: np.ndarray) -> BlockSparseMatrix:
    """Add a per-output-column bias to the nonzero blocks.

    ``bias`` has one entry per column of the sparse matrix; block ``k``
    sees the slice for its block column.  Zero blocks stay zero, and so
    do the structural-zero (padding) rows of a topology that knows its
    live rows: they receive no bias and come out as ``+0.0``, which is
    what the dense computation on real rows needs — ``padded_scatter``
    slices them away.
    """
    topo = s.topology
    bias = np.asarray(bias)
    if bias.shape != (topo.shape[1],):
        raise ValueError(
            f"bias must have shape ({topo.shape[1]},), got {bias.shape}"
        )
    out = np.empty(s.values.shape, np.result_type(s.values.dtype, bias.dtype))
    return BlockSparseMatrix(topo, add_bias_live(s.values, bias, topo, out))
