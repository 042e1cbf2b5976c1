"""MoE routing host records: top-1 selection, dispatch fractions, the
non-finite-logits probe and the dMoE's dispatch plan.

Host records carry no layout descriptors — they classify by function
identity plus their frozen scalar arguments, and the guard checks the
live arrays on every call (tokens-per-expert wobble changes them
between replays).  ``repro.moe.router`` imports ``repro.autograd``, so
the replaced callables are named by path and resolved on first lookup.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import arena
from repro.autograd.lower.kernels.base import (
    F4, I64, Arr, Const, Contract, Kernel, Live, Rel, addr, f32, i64, ids_within,
)

_TOPK1_C = r"""
/* Top-1 routing: (-scores).argsort(kind="stable")[..., :1].  The first
 * column of a stable ascending sort of -scores is the first occurrence
 * of the row max; NaN sorts last and is never picked unless the whole
 * row is NaN (then the stable identity order leaves index 0 first). */
void repro_topk1_i64(const float *restrict scores, i64 *restrict out,
                     i64 rows, i64 n)
{
    for (i64 r = 0; r < rows; r++) {
        const float *sr = scores + r * n;
        i64 best = -1;
        float bv = 0.0f;
        for (i64 j = 0; j < n; j++) {
            float v = sr[j];
            if (!isnan(v) && (best < 0 || v > bv)) { best = j; bv = v; }
        }
        out[r] = best < 0 ? 0 : best;
    }
}
"""

_LBFRAC_C = r"""
/* _lb_fractions: bincount(idx, minlength=e) / max(n, 1), divided in
 * float64 and rounded to f32 on the store — the astype chain of the
 * host op. */
void repro_lbfrac_f32(const i64 *restrict idx, float *restrict out,
                      i64 n, i64 e, i64 *restrict counts)
{
    for (i64 t = 0; t < e; t++) counts[t] = 0;
    for (i64 i = 0; i < n; i++) counts[idx[i]]++;
    double denom = (double)(n > 0 ? n : 1);
    for (i64 t = 0; t < e; t++)
        out[t] = (float)((double)counts[t] / denom);
}
"""

_FINITE_C = r"""
/* bool(np.isfinite(x).all()) over a contiguous f32 buffer. */
i64 repro_allfinite_f32(const float *restrict x, i64 n)
{
    for (i64 i = 0; i < n; i++)
        if (!isfinite(x[i])) return 0;
    return 1;
}
"""


_DISPATCH_C = r"""
/* The dMoE's dispatch metadata for one routing outcome, in one pass
 * per structure (repro.core.dmoe._build_dispatch, which is the
 * reference): the stable counting sort of the N = T*k routed copies by
 * expert, the padded plan, the padded-row expert map, the Figure-3C
 * block-diagonal topology (each non-empty expert one group of C block
 * columns), its dispatch-plan group and live tables, the live rows of
 * each nonzero block and its transpose segments.  Every array lives in
 * one of two capacity buffers — ib (int64) and jb (int32, the
 * topology's own index arrays) — at the segment offsets the runner
 * lays out once in o[]; a step writes only their live prefixes.
 * hdr[] receives the live counts: padded rows, nonzero blocks, groups,
 * column gaps, the largest group's blocks, non-empty block columns.
 * Integer bookkeeping a few times over the routed copies: -O1 runs it
 * as fast and keeps the cold compile (part of every process's set-up)
 * short. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("O1")
#endif
void repro_dispatch_plan(const i64 *restrict idx, i64 N, i64 k, i64 E,
                         i64 bs, i64 C, i64 *restrict ib, int *restrict jb,
                         const i64 *restrict o)
{
    i64 *hdr = ib + o[0], *cnt = ib + o[1], *pad = ib + o[2];
    i64 *gat = ib + o[3], *cop = ib + o[4], *rex = ib + o[5];
    i64 *gt = ib + o[6], *lt = ib + o[7], *brw = ib + o[8];
    i64 *tb64 = ib + o[9], *ne = ib + o[10], *st = ib + o[11];
    i64 *gaps = ib + o[12], *cur = ib + o[13];
    int *rof = jb + o[14], *cix = jb + o[15], *rix = jb + o[16];
    int *tbo = jb + o[17], *trof = jb + o[18];
    i64 P = 0, G = 0, maxgb = 0, ngap = 0, nne = 0, end = 0, r0 = 0;

    for (i64 e = 0; e < E; e++) cnt[e] = 0;
    for (i64 j = 0; j < N; j++) cnt[idx[j]]++;
    for (i64 e = 0; e < E; e++) {
        pad[e] = (cnt[e] + bs - 1) / bs * bs;
        cur[e] = P;
        P += pad[e];
    }
    /* argsort(kind="stable"): copies keep their order within an expert;
     * pad rows hold -1. */
    for (i64 i = 0; i < P; i++) { gat[i] = -1; cop[i] = -1; }
    for (i64 j = 0; j < N; j++) {
        i64 d = cur[idx[j]]++;
        gat[d] = j / k;
        cop[d] = j;
    }
    rof[0] = 0;
    for (i64 e = 0; e < E; e++) {
        i64 rows = pad[e] / bs, lv = cnt[e];
        for (i64 i = 0; i < pad[e]; i++) rex[r0 * bs + i] = e;
        for (i64 r = r0; r < r0 + rows; r++) {
            rof[r + 1] = (int)((r + 1) * C);
            for (i64 c = 0; c < C; c++) {
                cix[r * C + c] = (int)(e * C + c);
                rix[r * C + c] = (int)r;
            }
        }
        if (rows) {
            i64 *g = gt + G * 5;
            g[0] = r0; g[1] = rows; g[2] = e * C; g[3] = C; g[4] = r0 * C;
            /* dispatch.gemm_rows: the one-row rule */
            lt[G * 2] = lv;
            lt[G * 2 + 1] = lv == 1 ? (pad[e] < 2 ? pad[e] : 2) : lv;
            for (i64 r = 0; r < rows; r++) {
                i64 here = lv - r * bs;
                here = here < 0 ? 0 : here > bs ? bs : here;
                for (i64 c = 0; c < C; c++) brw[(r0 + r) * C + c] = here;
            }
            if (rows * C > maxgb) maxgb = rows * C;
            if (e * C > end) {
                gaps[2 * ngap] = end; gaps[2 * ngap + 1] = e * C; ngap++;
            }
            end = (e + 1) * C;
            G++;
        }
        r0 += rows;
    }
    if (E * C > end) {
        gaps[2 * ngap] = end; gaps[2 * ngap + 1] = E * C; ngap++;
    }
    /* Transposed (column-major) order: column c of expert e lists its
     * block rows ascending — lexsort((rows, cols)). */
    i64 pos = 0;
    trof[0] = 0;
    r0 = 0;
    for (i64 e = 0; e < E; e++) {
        i64 rows = pad[e] / bs;
        for (i64 c = 0; c < C; c++) {
            i64 cc = e * C + c;
            if (rows) { ne[nne] = cc; st[nne] = pos; nne++; }
            for (i64 r = r0; r < r0 + rows; r++) {
                tbo[pos] = (int)(r * C + c);
                tb64[pos] = r * C + c;
                pos++;
            }
            trof[cc + 1] = (int)pos;
        }
        r0 += rows;
    }
    st[nne] = pos;
    hdr[0] = P; hdr[1] = pos; hdr[2] = G; hdr[3] = ngap; hdr[4] = maxgb;
    hdr[5] = nne;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif
"""


def _topk1_forward(b):
    cfn = b.lib.repro_topk1_i64
    ptr = b.operands.args
    held, at, hold = b.holds(1)

    def run(s, k):
        # An arena buffer: the ids every unit downstream reads are the
        # same array from one replay of a slot to the next.
        out = arena.empty((s.shape[0], 1), I64)
        cfn(ptr[0], at[0] if out is held[0] else hold(0, out), s.shape[0], s.shape[1])
        return (out,)

    return run


def _lbfrac_forward(b):
    cfn = b.lib.repro_lbfrac_f32
    iscratch = b.iscratch
    held, at, hold = b.holds(2)

    def run(idx, e):
        flat = np.ascontiguousarray(idx.reshape(-1), I64)
        out = arena.empty((e,), F4)
        counts = iscratch(e)
        cfn(addr(flat), at[1] if out is held[1] else hold(1, out), flat.size, e,
            at[0] if counts is held[0] else hold(0, counts))
        return (out,)

    return run


def _finite_forward(b):
    cfn = b.lib.repro_allfinite_f32
    ptr = b.operands.args

    def run(x):
        return (bool(cfn(ptr[0], x.size)),)

    return run


#: The int64 buffer's segments, in order, and the int32 buffer's.
_I64_SEGMENTS = (
    "hdr", "counts", "padded", "gather", "copies", "row_expert", "groups",
    "live", "block_rows", "tbo64", "nonempty", "starts", "gaps", "cursor",
)
_I32_SEGMENTS = ("row_offsets", "column_indices", "row_indices", "tbo", "trow")


class _Capacity:
    """The two capacity buffers of one ``dispatch`` unit, for the
    ``N = T*k`` routed copies of ``T`` tokens over ``E`` experts of
    ``C`` block columns: a block-rounded expert holds at most ``bs - 1``
    pad rows, so no step plans more than ``N + E*(bs - 1)`` padded rows.
    A step's arrays are live prefixes of the segments."""

    def __init__(self, T: int, k: int, E: int, bs: int, C: int):
        rows = T * k + E * (bs - 1)
        blocks = rows // bs * C
        sizes = dict(
            hdr=8, counts=E, padded=E, gather=rows, copies=rows,
            row_expert=rows, groups=5 * E, live=2 * E, block_rows=blocks,
            tbo64=blocks, nonempty=E * C, starts=E * C + 1, gaps=2 * (E + 1),
            cursor=E, row_offsets=rows // bs + 1, column_indices=blocks,
            row_indices=blocks, tbo=blocks, trow=E * C + 1,
        )
        offsets, seg = [], {}
        for names, dtype in ((_I64_SEGMENTS, I64), (_I32_SEGMENTS, np.dtype(np.int32))):
            buf = np.empty(sum(sizes[n] for n in names), dtype)
            at = 0
            for n in names:
                offsets.append(at)
                seg[n] = buf[at : at + sizes[n]]
                at += sizes[n]
            seg[dtype.name] = buf
        self.key = (T, k, E, bs, C)
        self.offsets = np.array(offsets, I64)
        self.seg = seg
        self.ptrs = addr(seg["int64"]), addr(seg["int32"]), addr(self.offsets)


def _dispatch_forward(b):
    from repro.core.dmoe import remember_dispatch
    from repro.moe.permute import PaddedPlan
    from repro.sparse.dispatch import DispatchPlan, LiveLayout
    from repro.sparse.topology import Topology

    cfn = b.lib.repro_dispatch_plan
    cap = None

    def run(mod, idx):
        nonlocal cap
        T, k = idx.shape
        if not T:
            return False  # no copies, no groups: the NumPy build's case
        E, bs = mod.num_experts, mod.block_size
        C = mod.ffn_hidden_size // bs
        if cap is None or cap.key != (T, k, E, bs, C):
            cap = _Capacity(T, k, E, bs, C)
        flat = idx if idx.dtype == I64 and idx.flags.c_contiguous else (
            np.ascontiguousarray(idx, I64)
        )
        cfn(addr(flat), T * k, k, E, bs, C, *cap.ptrs)
        seg = cap.seg
        P, nnz, G, ngap, maxgb, nne = seg["hdr"][:6].tolist()
        gt = seg["groups"][: 5 * G].reshape(G, 5)
        lt = seg["live"][: 2 * G].reshape(G, 2)
        nonempty, starts = seg["nonempty"][:nne], seg["starts"][: nne + 1]
        tbo = seg["tbo"][:nnz]
        gaps = seg["gaps"][: 2 * ngap].tolist()
        dplan = DispatchPlan(
            *gt.T, cols_disjoint=True, col_gaps=tuple(zip(gaps[::2], gaps[1::2])),
        )
        dplan.__dict__.update(
            nnz_blocks=nnz, max_group_blocks=maxgb, rows_covered_blocks=P // bs,
        )
        topo = Topology(
            (P, E * C * bs), bs, seg["row_offsets"][: P // bs + 1],
            seg["column_indices"][:nnz], seg["row_indices"][:nnz], tbo,
            seg["trow"], live_rows=lt[:, 0],
            # What dispatch.analyze / group_table / bands_fit,
            # ops.segment_meta and gelu.tr_segments would derive and
            # memoize under these keys.
            memo={
                "dispatch_plan": dplan,
                "dispatch_group_table": gt,
                ("bands_fit", C * bs): True,
                ("segment_meta", True): (nonempty, starts[:nne]),
                "lower_tr_segments": (seg["tbo64"][:nnz], nonempty, starts),
            },
        )
        topo.__dict__["live_layout"] = LiveLayout.of_tables(
            bs, dplan, lt, seg["block_rows"][:nnz], T * k, P,
        )
        plan = PaddedPlan(
            seg["gather"][:P], seg["copies"][:P], seg["counts"], seg["padded"],
            bs, T, k,
        )
        row_expert = seg["row_expert"][:P]
        remember_dispatch(mod, plan, topo, row_expert, idx)
        return ((plan, topo, row_expert),)

    return run


def _int_widths(mod) -> bool:
    """Python-int width and block, at least one block wide: what the C
    call takes and ``dMoE.__init__`` (which checks whole blocks) does not
    check."""
    f, bs = mod.ffn_hidden_size, mod.block_size
    return type(f) is int and type(bs) is int and f >= bs >= 1


def fuzz_dispatch(rng):
    """A routing outcome of a small dMoE: top-1 or top-2 over 1-5
    experts, ragged, with empty experts, a one-token expert or every
    copy on one expert, in blocks of 1, 2 or 4 rows."""
    from repro.core.dmoe import dMoE

    E = int(rng.integers(1, 6))
    k = int(rng.integers(1, min(E, 2) + 1))
    T = int(rng.integers(1, 12))
    shape = rng.integers(0, 4)
    if shape == 0:  # all to one expert
        idx = np.full((T, k), int(rng.integers(E)), I64)
    elif shape == 1:  # one token only
        idx = i64(rng, (1, k), 0, E)
    else:
        idx = i64(rng, (T, k), 0, max(1, E - int(shape == 2)))
    bs = int(rng.choice([1, 2, 4]))
    layer = dMoE(2, bs * int(rng.integers(1, 3)), E, top_k=k, block_size=bs, rng=0)
    return layer, idx


def _fuzz_topk1(rng):
    s = f32(rng, int(rng.integers(1, 20)), 5)
    s[rng.random(s.shape) < 0.2] = 1.0  # ties break toward the lower id
    return s, 1


def _fuzz_finite(rng):
    x = f32(rng, 7, 5)
    if rng.random() < 0.5:
        x[3, 2] = rng.choice([np.nan, np.inf, -np.inf])
    return (x,)


KERNELS = (
    Kernel(
        "topk1", "repro.moe.router.top_k_indices",
        source=_TOPK1_C,
        contract=Contract(
            # Only the top-1 argmax scan is implemented; k > 1 stays host.
            Const(1, lambda k: k == 1),
            Arr(0, rank=2),
            Rel("at least one expert", lambda s, k: s.shape[1] >= 1),
        ),
        forward=_topk1_forward,
        fuzz=_fuzz_topk1,
    ),
    Kernel(
        "lbfrac", "repro.moe.router._lb_fractions",
        source=_LBFRAC_C,
        contract=Contract(
            Const(1, lambda e: type(e) is int and e >= 1),
            Arr(0, "iu", contig=False),
            Live("ids within the experts", ids_within),
        ),
        forward=_lbfrac_forward,
        fuzz=lambda rng: (i64(rng, (int(rng.integers(0, 30)), 1), 0, 4), 4),
    ),
    Kernel(
        "dispatch", "repro.core.dmoe._build_dispatch",
        source=_DISPATCH_C,
        contract=Contract(
            Const(0, _int_widths),
            Arr(1, "iu", rank=2, contig=False),
            Live("ids within the experts",
                 lambda mod, idx: ids_within(idx, mod.num_experts)),
        ),
        forward=_dispatch_forward,
        fuzz=fuzz_dispatch,
    ),
    Kernel(
        "finite", "repro.moe.router._logits_finite",
        source=_FINITE_C,
        contract=Contract(Arr(0)),
        forward=_finite_forward,
        fuzz=_fuzz_finite,
    ),
)
