"""Autograd wrappers for the block-sparse kernels.

A sparse activation travels the tape as a Tensor holding the *value array*
``(nnz_blocks, bs, bs)``; the (non-differentiable) topology rides along as
a plain argument.  The backward passes issue exactly the transposed
products listed in MegaBlocks §5.1:

- ``h = sdd_mm(x, w, topo)``  →  ``dx = DSD^T(dh, w)``, ``dw = DD^TS(x, dh)``
- ``y = dsd_mm(h, w, topo)``  →  ``dh = SDD^T(dy, w)``, ``dw = DS^TD(h, dy)``
"""

from __future__ import annotations

import numpy as np

from repro.autograd import arena, stats
from repro.autograd.function import Function
from repro.autograd.ops_fused import _gelu_bwd, _gelu_fwd
from repro.autograd.tensor import Tensor, as_tensor
from repro.sparse.dispatch import live_layout
from repro.sparse.matrix import BlockSparseMatrix
from repro.sparse.ops import add_bias_live, dds, dsd, sdd, segment_meta
from repro.sparse.topology import Topology


class _SddMM(Function):
    """values = blocks of (X @ W) sampled by ``topology``.

    ``w`` is ``(K, N)`` or banded ``(G, K, N / G)`` — expert-major
    weights read where they live — and ``dw`` comes back in ``w``'s own
    form, C-contiguous (``repro.sparse.dispatch``, "Banded operands")."""

    @staticmethod
    def forward(ctx, x, w, topology):
        ctx.save_for_backward(x, w, topology)
        return sdd(x, w, topology).values

    @staticmethod
    def backward(ctx, grad_values):
        x, w, topology = ctx.saved
        grad_sparse = BlockSparseMatrix(topology, grad_values)
        # DSD^T: dX = dH @ W^T
        dx = dsd(grad_sparse, w, trans_b=True)
        # DD^TS: dW = X^T @ dH
        bands = w.shape[0] if w.ndim == 3 else None
        dw = dds(x, grad_sparse, trans_a=True, bands=bands)
        return dx, dw


class _DsdMM(Function):
    """y = H @ W for block-sparse H (values Tensor + topology)."""

    @staticmethod
    def forward(ctx, h_values, w, topology):
        ctx.save_for_backward(h_values, w, topology)
        return dsd(BlockSparseMatrix(topology, h_values), w)

    @staticmethod
    def backward(ctx, grad_y):
        h_values, w, topology = ctx.saved
        # SDD^T: dH = dY @ W^T sampled at H's topology.
        dh = sdd(grad_y, w, topology, trans_b=True).values
        # DS^TD: dW = H^T @ dY via transpose indices.
        dw = dsd(BlockSparseMatrix(topology, h_values), grad_y, trans_s=True)
        return dh, dw


def sdd_mm(x: Tensor, w: Tensor, topology: Topology) -> Tensor:
    """Differentiable SDD; returns the sparse value array as a Tensor."""
    return _SddMM.apply(as_tensor(x), as_tensor(w), topology)


def dsd_mm(h_values: Tensor, w: Tensor, topology: Topology) -> Tensor:
    """Differentiable DSD over sparse values produced by :func:`sdd_mm`."""
    return _DsdMM.apply(as_tensor(h_values), as_tensor(w), topology)


class _SparseBiasAdd(Function):
    """Add per-column bias to sparse values (layer-1 bias inside experts).

    Structural-zero rows (``topology.live_rows``) receive no bias: they
    come out as ``+0.0`` and contribute nothing to the bias gradient."""

    @staticmethod
    def forward(ctx, values, bias, topology):
        ctx.save_for_backward(topology)
        out = np.empty(values.shape, np.result_type(values.dtype, bias.dtype))
        return add_bias_live(values, bias, topology, out)

    @staticmethod
    def backward(ctx, grad):
        (topology,) = ctx.saved
        return grad, _segment_reduce_bias_grad(grad, topology)


def _segment_reduce_bias_grad(grad: np.ndarray, topology: Topology) -> np.ndarray:
    """Per-column bias gradient from sparse value grads.

    Sums each block's live rows, then walks the per-block sums in
    transpose (column-sorted) order so the per-column accumulation is a
    segment reduction, not a scatter-add.
    """
    bs = topology.block_size
    layout = live_layout(topology)
    # (nnz, bs): sum over the live rows of each block.
    gbias_blocks = arena.empty((topology.nnz_blocks, bs), grad.dtype, topology)
    for lo, hi, rows in layout.live_regions:
        np.sum(grad[lo:hi, :rows], axis=1, out=gbias_blocks[lo:hi])
    for lo, hi, rows in layout.pad_regions:
        if rows == 0:
            gbias_blocks[lo:hi] = 0
    gbias = arena.zeros((topology.block_cols, bs), grad.dtype)
    nonempty, starts = segment_meta(topology, transpose=True)
    if len(nonempty):
        sorted_blocks = gbias_blocks[topology.transpose_block_offsets]
        gbias[nonempty] = np.add.reduceat(sorted_blocks, starts, axis=0)
    arena.release(gbias_blocks)
    return gbias.reshape(-1)


def sparse_bias_add(values: Tensor, bias: Tensor, topology: Topology) -> Tensor:
    """Differentiable column-bias add on sparse values."""
    return _SparseBiasAdd.apply(as_tensor(values), as_tensor(bias), topology)


class _SparseBiasGelu(Function):
    """Fused ``gelu(sparse_bias_add(values, bias))`` — one tape node for
    the expert first-layer bias + activation, bit-identical to the
    composition of ``_SparseBiasAdd`` and ``ops_nn._GELU``.  Pad rows of
    every buffer it produces are ``+0.0``: the bias add writes them, the
    GELU chain keeps them (``gelu(+0.0)`` and ``tanh(+0.0)`` are
    ``+0.0``), and the backward zeroes them in the value gradient."""

    @staticmethod
    def forward(ctx, values, bias, topology):
        a = arena.empty(values.shape, np.result_type(values.dtype, bias.dtype), values)
        add_bias_live(values, bias, topology, a)
        t, out = _gelu_fwd(a)
        ctx.save_for_backward(a, t, topology)
        return out

    @staticmethod
    def backward(ctx, grad):
        a, t, topology = ctx.saved
        g = _gelu_bwd(grad, a, t)
        live_layout(topology).zero_pad_rows(g)
        return g, _segment_reduce_bias_grad(g, topology)


def sparse_bias_gelu(values: Tensor, bias: Tensor, topology: Topology) -> Tensor:
    """Fused differentiable column-bias add + GELU on sparse values."""
    out = _SparseBiasGelu.apply(as_tensor(values), as_tensor(bias), topology)
    return stats.record_fused("sparse_bias_gelu", out, replaced=2)


class _DdsMM(Function):
    """y = A @ S for dense A and block-sparse S (values Tensor)."""

    @staticmethod
    def forward(ctx, a, s_values, topology):
        ctx.save_for_backward(a, s_values, topology)
        return dds(a, BlockSparseMatrix(topology, s_values))

    @staticmethod
    def backward(ctx, grad_y):
        a, s_values, topology = ctx.saved
        # dA = dY @ S^T  (DDS^T, BCSR row iteration).
        da = dds(grad_y, BlockSparseMatrix(topology, s_values), trans_s=True)
        # dS = A^T @ dY sampled at S's topology (SDD with trans_a).
        ds = sdd(a, grad_y, topology, trans_a=True).values
        return da, ds


def dds_mm(a: Tensor, s_values: Tensor, topology: Topology) -> Tensor:
    """Differentiable DDS: dense ``a`` times a block-sparse matrix."""
    return _DdsMM.apply(as_tensor(a), as_tensor(s_values), topology)
