"""MoE routing host records: top-1 selection, dispatch fractions and
the non-finite-logits probe.

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


def _topk1_forward(b):
    cfn = b.lib.repro_topk1_i64
    ptr = b.operands.args

    def run(s, k):
        out = np.empty((s.shape[0], 1), I64)
        cfn(ptr[0], addr(out), s.shape[0], s.shape[1])
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
        "finite", "repro.moe.router._logits_finite",
        source=_FINITE_C,
        contract=Contract(Arr(0)),
        forward=_finite_forward,
        fuzz=_fuzz_finite,
    ),
)
