"""Grouped block-sparse GEMMs: SDD, DSD and their backward products
(MegaBlocks §5.1) over the memoized ``DispatchPlan`` groups, through
NumPy's own sgemm.

The topology is a host-record output (tokens-per-expert wobble), so
nothing is baked: every call re-reads the live dispatch plan, group
table and live-row table.  A topology the dispatch heuristic sends down
the *blocked* path is the planned eager path, not a guard breach — the
forward runners return ``False`` and the record replays on the
interpreter without counting a fallback; the backward closures fall
back wholesale to the op's own ``backward``, which re-runs the full
dispatch decision per product.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import arena
from repro.autograd.lower.kernels.base import (
    BLAS, F4, Arr, Contract, Kernel, Live, Rel, addr, f32,
)
from repro.sparse import autograd_ops as _S
from repro.sparse import dispatch as _D
from repro.sparse import stats as _SS

_SDD_C = r"""
/* ------------------------------------------------------------------ */
/* Grouped block-sparse GEMMs over the memoized DispatchPlan groups.   */
/* gt is the (G, 5) int64 group table [row_start, row_count,           */
/* col_start, col_count, val_start] in block units; stage is a         */
/* max_group_blocks*bs*bs scratch holding one group's dense rectangle. */
/* Dense operands carry (ld, trans) pairs: trans means the effective   */
/* matrix is the transpose of the row-major storage, so slicing rows   */
/* of the effective matrix offsets *within* stored rows (and vice      */
/* versa for columns) — the pointer arithmetic mirrors the zero-copy   */
/* NumPy views of repro.sparse.dispatch exactly.                       */
/*                                                                     */
/* Banded operands (dispatch.band).  Where the groups slice a stored   */
/* matrix by column — SDD's untransposed b, DSD's transposed b, DDS's  */
/* out — the matrix may be a stack of (rows, ld) bands, one per        */
/* expert, and ld is then the band width: column c lives in band       */
/* c / ld at column c % ld (BAND_AT).  A plain 2-D matrix is the       */
/* one-band case (c < ld).  Same sgemm arguments either way; only the  */
/* base pointer and leading dimension differ.                          */
/*                                                                     */
/* lt is the (G, 2) int64 live table [live rows, GEMM rows] of the     */
/* topology's LiveLayout: each group's GEMM runs over its live rows    */
/* only (M = GEMM rows where the group's rows are an output extent —   */
/* the one-row rule is applied by dispatch.gemm_rows, not here —, K =  */
/* live rows where they are contracted), only those rows are staged or */
/* unshuffled, and the pad rows [live, row_count*bs) of the output are */
/* stored as +0.0f.  Same sgemm arguments, same zeros, as the NumPy    */
/* executors.                                                          */
/* ------------------------------------------------------------------ */

#define BAND_AT(p, rows, ld, c) ((p) + ((c) / (ld)) * ((rows) * (ld)) + (c) % (ld))

/* Copy the first ``rows`` rows of one group from the BCSR value array
 * into the dense stage rectangle (rows, c*bs): the _group_values
 * reshape/swapaxes. */
static void repro_group_gather(const float *restrict values,
                               float *restrict stage,
                               i64 rows, i64 c, i64 v0, i64 bs)
{
    i64 ng = c * bs;
    for (i64 br = 0; br * bs < rows; br++) {
        i64 here = rows - br * bs < bs ? rows - br * bs : bs;
        for (i64 bc = 0; bc < c; bc++) {
            const float *vb = values + (v0 + br * c + bc) * bs * bs;
            float *sb = stage + br * bs * ng + bc * bs;
            for (i64 ii = 0; ii < here; ii++)
                memcpy(sb + ii * ng, vb + ii * bs,
                       (size_t)bs * sizeof(float));
        }
    }
}

/* SDD: values of (A_eff @ B_eff) at each group rectangle; the product
 * of the live rows lands in stage and is scattered block-by-block into
 * values, pad rows as zeros. */
void repro_grouped_sdd_f32(const float *restrict a, i64 ald, i64 atrans,
                           const float *restrict b, i64 bld, i64 btrans,
                           float *restrict values, const i64 *restrict gt,
                           const i64 *restrict lt,
                           i64 G, i64 k, i64 bs, float *restrict stage)
{
    for (i64 g = 0; g < G; g++) {
        i64 r0 = gt[g * 5], r = gt[g * 5 + 1];
        i64 c0 = gt[g * 5 + 2], c = gt[g * 5 + 3], v0 = gt[g * 5 + 4];
        i64 lv = lt[g * 2], m = lt[g * 2 + 1];
        i64 ng = c * bs;
        const float *ap = atrans ? a + r0 * bs : a + r0 * bs * ald;
        const float *bp = btrans ? b + c0 * bs * bld
                                 : BAND_AT(b, k, bld, c0 * bs);
        if (m > 0)
            repro_sgemm(101, atrans ? 112 : 111, btrans ? 112 : 111,
                        m, ng, k, 1.0f, ap, ald, bp, bld, 0.0f, stage, ng);
        for (i64 br = 0; br < r; br++) {
            i64 here = lv - br * bs;
            here = here < 0 ? 0 : here > bs ? bs : here;
            for (i64 bc = 0; bc < c; bc++) {
                float *vb = values + (v0 + br * c + bc) * bs * bs;
                const float *sb = stage + br * bs * ng + bc * bs;
                for (i64 ii = 0; ii < here; ii++)
                    memcpy(vb + ii * bs, sb + ii * ng,
                           (size_t)bs * sizeof(float));
                memset(vb + here * bs, 0,
                       (size_t)((bs - here) * bs) * sizeof(float));
            }
        }
    }
}

/* DDS: out = A_eff @ (S or S^T); each group fills an output column
 * band of the (mo, nout) row-major out (S untransposed: out may be
 * banded, nout its band width). */
void repro_grouped_dds_f32(const float *restrict a, i64 ald, i64 atrans,
                           const float *restrict values,
                           float *restrict out, i64 mo, i64 nout,
                           const i64 *restrict gt, const i64 *restrict lt,
                           i64 G, i64 strans,
                           i64 bs, float *restrict stage)
{
    for (i64 g = 0; g < G; g++) {
        i64 r0 = gt[g * 5], r = gt[g * 5 + 1];
        i64 c0 = gt[g * 5 + 2], c = gt[g * 5 + 3], v0 = gt[g * 5 + 4];
        i64 lv = lt[g * 2], m = lt[g * 2 + 1];
        i64 ng = c * bs;
        if (strans) {
            float *op = out + r0 * bs;
            if (m > 0) {
                const float *ap = atrans ? a + c0 * bs * ald : a + c0 * bs;
                repro_group_gather(values, stage, m, c, v0, bs);
                repro_sgemm(101, atrans ? 112 : 111, 112, mo, m, ng, 1.0f,
                            ap, ald, stage, ng, 0.0f, op, nout);
            }
            if (lv < r * bs)
                for (i64 i = 0; i < mo; i++)
                    memset(op + i * nout + lv, 0,
                           (size_t)(r * bs - lv) * sizeof(float));
        } else {
            float *op = BAND_AT(out, mo, nout, c0 * bs);
            if (lv > 0) {
                const float *ap = atrans ? a + r0 * bs * ald : a + r0 * bs;
                repro_group_gather(values, stage, lv, c, v0, bs);
                repro_sgemm(101, atrans ? 112 : 111, 111, mo, ng, lv, 1.0f,
                            ap, ald, stage, ng, 0.0f, op, nout);
            } else {
                for (i64 i = 0; i < mo; i++)
                    memset(op + i * nout, 0, (size_t)ng * sizeof(float));
            }
        }
    }
}
"""

_DSD_C = r"""
/* DSD: out = (S or S^T) @ B_eff, one GEMM per gathered group. */
void repro_grouped_dsd_f32(const float *restrict values,
                           const float *restrict b, i64 bld, i64 btrans,
                           float *restrict out, i64 n,
                           const i64 *restrict gt, const i64 *restrict lt,
                           i64 G, i64 strans,
                           i64 bs, float *restrict stage)
{
    for (i64 g = 0; g < G; g++) {
        i64 r0 = gt[g * 5], r = gt[g * 5 + 1];
        i64 c0 = gt[g * 5 + 2], c = gt[g * 5 + 3], v0 = gt[g * 5 + 4];
        i64 lv = lt[g * 2], m = lt[g * 2 + 1];
        i64 ng = c * bs;
        if (strans) {
            float *op = out + c0 * bs * n;
            if (lv > 0) {
                const float *bp = btrans ? b + r0 * bs : b + r0 * bs * bld;
                repro_group_gather(values, stage, lv, c, v0, bs);
                repro_sgemm(101, 112, btrans ? 112 : 111, ng, n, lv, 1.0f,
                            stage, ng, bp, bld, 0.0f, op, n);
            } else {
                memset(op, 0, (size_t)(ng * n) * sizeof(float));
            }
        } else {
            float *op = out + r0 * bs * n;
            if (m > 0) {
                const float *bp = btrans ? BAND_AT(b, n, bld, c0 * bs)
                                         : b + c0 * bs * bld;
                repro_group_gather(values, stage, m, c, v0, bs);
                repro_sgemm(101, 111, btrans ? 112 : 111, m, n, ng, 1.0f,
                            stage, ng, bp, bld, 0.0f, op, n);
            }
            memset(op + lv * n, 0, (size_t)((r * bs - lv) * n) * sizeof(float));
        }
    }
}
"""

_record = _SS.record_product
_SDD, _DSD, _DDS, _DSTD = (
    _SS.Product(op, _SS.PATH_GROUPED) for op in ("sdd", "dsd", "dds", "ds^td")
)


def _rows_output(topo, dplan, bs, shape):
    """An output whose row bands the groups write (the rows of
    ``topo``): zero-filled only when some row band belongs to no
    group."""
    if dplan.rows_covered_blocks * bs == shape[0]:
        return arena.empty(shape, F4, topo)
    return arena.zeros(shape, F4, topo)


def _sdd_forward(b):
    cfn = b.lib.repro_grouped_sdd_f32
    ptr = b.operands.args
    held, at, hold = b.holds(2)

    def run(x, w, topo):
        dplan = _D.analyze(topo)
        if not _D.use_grouped(topo, dplan, False):
            return False
        bs = topo.block_size
        gt = _D.group_table(topo)
        lt = _D.live_layout(topo).table
        k = x.shape[1]
        vals = arena.empty((topo.nnz_blocks, bs, bs), F4, topo)
        stage = _D.stage_buf(dplan, bs, F4)
        cfn(ptr[0], k, 0, ptr[1], w.shape[-1], 0,
            at[0] if vals is held[0] else hold(0, vals), addr(gt), addr(lt),
            gt.shape[0], k, bs, at[1] if stage is held[1] else hold(1, stage))
        arena.release(stage)
        _record(_SDD, topo, k)
        return (x, w, topo), vals

    return run


def _dsd_forward(b):
    cfn = b.lib.repro_grouped_dsd_f32
    ptr = b.operands.args
    held, at, hold = b.holds(2)

    def run(v, w, topo):
        dplan = _D.analyze(topo)
        if not _D.use_grouped(topo, dplan, False):
            return False
        bs = topo.block_size
        gt = _D.group_table(topo)
        lt = _D.live_layout(topo).table
        n = w.shape[1]
        out = _rows_output(topo, dplan, bs, (topo.shape[0], n))
        stage = _D.stage_buf(dplan, bs, F4)
        cfn(ptr[0], ptr[1], n, 0, at[0] if out is held[0] else hold(0, out), n,
            addr(gt), addr(lt), gt.shape[0], 0, bs,
            at[1] if stage is held[1] else hold(1, stage))
        arena.release(stage)
        _record(_DSD, topo, n)
        return (v, w, topo), out

    return run


def _sdd_backward(b):
    cdsd = b.lib.repro_grouped_dsd_f32
    cdds = b.lib.repro_grouped_dds_f32
    ptr = b.operands.args
    held, at, hold = b.holds(3)

    def run(grad, x, w, topo):
        dplan = _D.analyze(topo)
        bs = topo.block_size
        rows_s = topo.shape[0]
        gt = _D.group_table(topo)
        lt = _D.live_layout(topo).table
        pgt, plt = addr(gt), addr(lt)
        G = gt.shape[0]
        k = x.shape[1]
        stage = _D.stage_buf(dplan, bs, F4)
        ps = at[0] if stage is held[0] else hold(0, stage)
        # DSD^T: dX = dH @ W^T over group row slices.
        dx = _rows_output(topo, dplan, bs, (rows_s, k))
        cdsd(ptr[0], ptr[2], w.shape[-1], 1,
             at[1] if dx is held[1] else hold(1, dx), k, pgt, plt,
             G, 0, bs, ps)
        _record(_DSD, topo, k)
        # DD^TS: dW = X^T @ dH into group column bands, in w's form.
        dw = _D.band_output(dplan, bs, w.shape, F4, 1)
        cdds(ptr[1], k, 1, ptr[0],
             at[2] if dw is held[2] else hold(2, dw), k, w.shape[-1], pgt,
             plt, G, 0, bs, ps)
        arena.release(stage)
        _record(_DDS, topo, k)
        return dx, dw

    return run


def _dsd_backward(b):
    csdd = b.lib.repro_grouped_sdd_f32
    cdsd = b.lib.repro_grouped_dsd_f32
    ptr = b.operands.args
    held, at, hold = b.holds(3)

    def run(grad, h_values, w, topo):
        dplan = _D.analyze(topo)
        bs = topo.block_size
        gt = _D.group_table(topo)
        lt = _D.live_layout(topo).table
        pgt, plt = addr(gt), addr(lt)
        G = gt.shape[0]
        n = grad.shape[1]
        stage = _D.stage_buf(dplan, bs, F4)
        ps = at[0] if stage is held[0] else hold(0, stage)
        # SDD^T: dH = dY @ W^T sampled at H's topology.
        dh = arena.empty((topo.nnz_blocks, bs, bs), F4, topo)
        csdd(ptr[0], n, 0, ptr[2], w.shape[1], 1,
             at[1] if dh is held[1] else hold(1, dh), pgt, plt, G, n,
             bs, ps)
        _record(_SDD, topo, n)
        # DS^TD: dW = H^T @ dY into group column-range rows.
        dw = _D.band_output(dplan, bs, (topo.shape[1], n), F4, 0)
        cdsd(ptr[1], ptr[0], n, 0,
             at[2] if dw is held[2] else hold(2, dw), n, pgt, plt, G, 1,
             bs, ps)
        arena.release(stage)
        _record(_DSTD, topo, n)
        return dh, dw

    return run


def blocks_of(v, topo, min_bs: int = 2) -> bool:
    """``v`` holds one ``bs x bs`` block per nonzero of ``topo``, and
    the blocks are at least ``min_bs`` wide (a one-wide extent would
    leave sgemm's — or NumPy's sequential — reduction order)."""
    bs = topo.block_size
    return bs >= min_bs and v.shape == (topo.nnz_blocks, bs, bs)


def _both_grouped(topo) -> bool:
    dplan = _D.analyze(topo)
    return _D.use_grouped(topo, dplan, False) and _D.use_grouped(topo, dplan, True)


def fuzz_topology(rng, bs=4):
    """A block-diagonal topology with live rows (so dispatch runs it
    grouped): ragged, one-token and no-token experts, and sometimes one
    with no blocks at all."""
    from repro.sparse import Topology

    rows = rng.integers(2, 5, size=3)
    if rng.random() < 0.5:
        rows[int(rng.integers(3))] = 0
    topo = Topology.block_diagonal(rows, np.full(3, 2), bs)
    live = [int(rng.integers(0, r * bs + 1)) for r in rows if r]
    return _D.with_live_rows(topo, live)


def _fuzz_sdd(rng):
    topo = fuzz_topology(rng)
    w = f32(rng, 6, topo.shape[1])
    if rng.random() < 0.5:
        # The same weights banded, one band per expert (dispatch.band).
        w = np.ascontiguousarray(w.reshape(6, 3, -1).transpose(1, 0, 2))
    return f32(rng, topo.shape[0], 6), w, topo


def _weights_fit(x, w, topo) -> bool:
    """``w`` — ``(K, N)`` or banded ``(G, K, N / G)`` — is the right
    operand of ``x @ w`` sampled at ``topo``, no group across a band."""
    k = x.shape[1]
    return (
        w.shape[-2] == k
        and w.size == k * topo.shape[1]
        and _D.bands_fit(topo, w.shape[-1])
    )


def _fuzz_dsd(rng):
    topo = fuzz_topology(rng)
    bs = topo.block_size
    return f32(rng, topo.nnz_blocks, bs, bs), f32(rng, topo.shape[1], 6), topo


KERNELS = (
    Kernel(
        "sdd", _S._SddMM,
        source=_SDD_C,
        contract=Contract(
            BLAS,
            Arr(0, rank=2),
            Arr(1, rank=(2, 3)),
            Rel("inner dimensions agree, >= 2", lambda x, w, topo: (
                w.shape[-2] == x.shape[1] >= 2
            )),
            Live("the topology's shape, blocks >= 2 wide", lambda x, w, topo: (
                topo.block_size >= 2 and x.shape[0] == topo.shape[0]
            )),
            Live("weights fit, every group inside one band", _weights_fit),
        ),
        forward=_sdd_forward,
        bwd_contract=Contract(BLAS),
        bwd_guard=Contract(
            Arr(0, rank=3), Arr(1, rank=2), Arr(2, rank=(2, 3)),
            Live("grouped dispatch, both orientations",
                 lambda g, x, w, topo: _both_grouped(topo)),
            Live("the topology's blocks and shape", lambda g, x, w, topo: (
                blocks_of(g, topo)
                and x.shape[1] >= 2
                and x.shape[0] == topo.shape[0]
            )),
            Live("weights fit, every group inside one band",
                 lambda g, x, w, topo: _weights_fit(x, w, topo)),
        ),
        backward=_sdd_backward,
        fuzz=_fuzz_sdd,
    ),
    Kernel(
        "dsd", _S._DsdMM,
        source=_DSD_C,
        contract=Contract(
            BLAS,
            Arr(0, rank=3),
            Arr(1, rank=2),
            Rel("output >= 2 wide", lambda v, w, topo: w.shape[1] >= 2),
            Live("the topology's blocks and columns", lambda v, w, topo: (
                blocks_of(v, topo) and w.shape[0] == topo.shape[1]
            )),
        ),
        forward=_dsd_forward,
        bwd_contract=Contract(BLAS),
        bwd_guard=Contract(
            Arr(0, rank=2), Arr(1, rank=3), Arr(2, rank=2),
            Live("grouped dispatch, both orientations",
                 lambda g, h, w, topo: _both_grouped(topo)),
            Live("the topology's blocks and shape", lambda g, h, w, topo: (
                blocks_of(h, topo)
                and g.shape[0] == topo.shape[0]
                and g.shape[1] >= 2
                and w.shape == (topo.shape[1], g.shape[1])
            )),
        ),
        backward=_dsd_backward,
        fuzz=_fuzz_dsd,
    ),
)
