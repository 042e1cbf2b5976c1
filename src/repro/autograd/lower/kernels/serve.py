"""Row-stable serving: the GEMMs, attention rows, the MoE layer, sampling.

Four direct entries, run on plain arrays (through
:func:`repro.autograd.lower.runtime.direct` or a binding held by the
caller) and compared with the NumPy
references their callers keep: ``serve_gemm`` (fp32, bias epilogue) and
``attn_rows`` (the scores/context pair around ``np.exp``) from
:mod:`repro.serving.kernels`, whose docstring states the contract they
honour — the accumulation order per output element, and why a row's
result cannot depend on the rows beside it; ``serve_moe`` (a served MoE
layer: router GEMM, softmax, top-k, grouping, both expert GEMMs — fp32,
or int8 converted in registers with a scale and bias epilogue — GELU and
combine in three calls around ``np.exp`` and ``np.tanh``; reference
:func:`repro.moe.inference.moe_forward_ref`) and ``serve_sample`` (the
scheduler's token sampling in two calls around ``np.exp`` and the draws;
reference :func:`repro.serving.sampling.sample_rows`).  The MoE layer's
products run the GEMM's loops, so its rows are as stable.

Their C is one run of the prelude, last in table order, in the order of
the entries below: the GEMM's source opens it (types, the per-ISA tile
and stream kernels, the two GEMM loops), the sampler's closes it.
``#pragma GCC push_options`` / ``pop_options`` keep its
``optimize("O1")`` to its own functions: everything hot here is explicit
vector code, and the rest of the prelude keeps ``-O3``.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.autograd.lower.kernels.base import (
    F4, I64, Arr, Contract, Kernel, Live, Rel, addr, f32, ndarray,
)
from repro.autograd.ops_nn import _GELU_C
from repro.observability.metrics import registry

I8, F8 = np.dtype(np.int8), np.dtype(np.float64)
_K044, _C = 0.044715, float(_GELU_C)  # GELU's two constants, cast in C as NumPy casts them
# The MoE runner counts its three GEMMs as repro.serving.kernels counts one.
_GEMM_CALLS, _GEMM_FLOPS = (registry().counter(f"serve_gemm_{w}") for w in ("calls", "flops"))


# ----------------------------------------------------------------------
# The C source: two rendered kernels per ISA inside a fixed template
# ----------------------------------------------------------------------
def _render_tile(vl: int, nv: int) -> str:
    """C for the register tile of the many-row path: 4 rows x ``nv``
    vectors of accumulators, every one a named variable (nothing left for
    the optimizer to unroll or scalar-replace).  ``first``/``last`` let
    the caller walk ``K`` in chunks: partial sums are reloaded from ``o``
    and the epilogue runs once, after the final ``k`` — the chain per
    element is unchanged."""
    rows, vecs = range(4), range(nv)
    accs = [(r, v) for r in rows for v in vecs]
    lines = [
        "static inline __attribute__((always_inline)) void tile(",
        "    const float *x, i64 ldx, i64 m, i64 kc, const float *w,",
        "    float *o, i64 ldo, int first, int last,",
        "    const float *scale, const float *bias)",
        "{",
        "    /* m <= 4 live rows; the rest repeat row m-1 and are not stored */",
        "    const i64 r1 = m > 1, r2 = m > 2 ? 2 : m - 1, r3 = m - 1;",
        "    const float *x0 = x, *x1 = x + r1 * ldx, *x2 = x + r2 * ldx,"
        " *x3 = x + r3 * ldx;",
        "    float *o0 = o, *o1 = o + r1 * ldo, *o2 = o + r2 * ldo,"
        " *o3 = o + r3 * ldo;",
        "    vf " + ", ".join(f"a{r}{v}" for r, v in accs) + ";",
        "    if (first) {",
        "        " + " ".join(f"a{r}{v} = (vf){{0.0f}};" for r, v in accs),
        "    } else {",
        "        " + " ".join(f"a{r}{v} = *(const vf *)(o{r} + {v} * VL);" for r, v in accs),
        "    }",
        "    for (i64 k = 0; k < kc; k++, w += NV * VL) {",
        "        const float " + ", ".join(f"s{r} = x{r}[k]" for r in rows) + ";",
    ]
    for v in vecs:
        lines.append(f"        const vf w{v} = *(const vf *)(w + {v} * VL);")
        lines.append("        " + " ".join(f"a{r}{v} = a{r}{v} + s{r} * w{v};" for r in rows))
    lines.append("    }")
    for operand, op in (("scale", "*"), ("bias", "+")):
        lines.append(f"    if (last && {operand}) {{")
        for v in vecs:
            lines.append(f"        const vf e{v} = *(const vf *)({operand} + {v} * VL);")
            lines.append("        " + " ".join(f"a{r}{v} = a{r}{v} {op} e{v};" for r in rows))
        lines.append("    }")
    for r in rows:
        stores = " ".join(f"*(vf *)(o{r} + {v} * VL) = a{r}{v};" for v in vecs)
        lines.append(f"    if (m > {r}) {{ {stores} }}")
    lines.append("}")
    return "\n".join(lines)


def _render_stream(wtype: str, m: int, vl: int) -> str:
    """C for the few-row path: ``m`` rows of accumulators held in memory
    (``o``, row stride ``ACC_LD``) while ``w`` streams past once, row by
    row — for every ``k``, every column gets its one multiply and add.
    Columns go ``vl`` lanes at a time, then (fp32) by halved vectors,
    then one by one, so any width is covered."""
    rows = range(m)
    lines = [
        f"static void stream{m}_{wtype}(const float *const *x, i64 K,",
        f"    const {wtype} *w, i64 ldw, float *o, i64 n)",
        "{",
        "    const float " + ", ".join(f"*x{r} = x[{r}]" for r in rows) + ";",
        "    float " + ", ".join(f"*o{r} = o + {r} * ACC_LD" for r in rows) + ";",
        "    for (i64 k = 0; k < K; k++, w += ldw) {",
        "        const float " + ", ".join(f"s{r} = x{r}[k]" for r in rows) + ";",
        "        i64 j = 0;",
    ]
    lanes = vl
    while lanes >= (4 if wtype == "float" else vl):
        if lanes == vl:
            lines.append(f"        for (; j + {vl} <= n; j += {vl}) {{")
            lines.append(f"            const vf wv = LOAD_{wtype}(w + j);")
        else:
            lines.append(f"        if (j + {lanes} <= n) {{")
            lines.append(f"            const f32x{lanes} wv = *(const f32x{lanes} *)(w + j);")
        for r in rows:
            at = f"(f32x{lanes} *)(o{r} + j)"
            lines.append(f"            *{at} = *{at} + s{r} * wv;")
        if lanes != vl:
            lines.append(f"            j += {lanes};")
        lines.append("        }")
        lanes //= 2
    lines.append("        for (; j < n; j++) {")
    lines.append("            const float wj = (float)w[j];")
    for r in rows:
        lines.append(f"            o{r}[j] = o{r}[j] + s{r} * wj;")
    lines += ["        }", "    }", "}"]
    return "\n".join(lines)


# int8 -> int32 -> fp32, both exact.  GCC (through 12 at least) turns the
# generic vector conversion into one scalar sign-extension per lane, so it
# is handed the instruction by name; anything else gets the generic form.
_WIDEN = {
    16: "(i32x16)__builtin_ia32_pmovsxbd512_mask("
        "(qi16)*(const i8x16 *)(p), (i32x16){0}, (unsigned short)-1)",
    8: "({ qi16 q_ = {0}; __builtin_memcpy(&q_, (p), 8);"
       " (i32x8)__builtin_ia32_pmovsxbd256(q_); })",
}


# Lanes [0, n) of one vector, any n (<= 0: none): loads read nothing
# past them (and zero-fill), stores write nothing past them.
_MASKED = {
    16: "\n".join((
        "typedef unsigned short vmask;",
        "#define MASK(n) ((vmask)((n) >= VL ? 0xFFFF : (n) <= 0 ? 0 : (1u << (n)) - 1))",
        "#define LOADM(p, m) ((vf)__builtin_ia32_loadups512_mask((p), (v16sf){0}, (m)))",
        "#define STOREM(p, v, m) __builtin_ia32_storeups512_mask((p), (v16sf)(v), (m))",
    )),
    8: "\n".join((
        "typedef v8si vmask;",
        "#define MASK(n) ((vmask)((v8si){0, 1, 2, 3, 4, 5, 6, 7} < (int)MIN(MAX(n, 0), VL)))",
        "#define LOADM(p, m) ((vf)__builtin_ia32_maskloadps256((const v8sf *)(p), (m)))",
        "#define STOREM(p, v, m) __builtin_ia32_maskstoreps256((v8sf *)(p), (m), (v8sf)(v))",
    )),
}


def _render_isa(vl: int, nv: int) -> str:
    parts = [
        f"#define VL {vl}  /* lanes of the working vector */",
        f"#define NV {nv}   /* vectors across a register tile */",
        f"typedef f32x{vl} vf;",
        f"typedef i32x{vl} vi;",
        "#if defined(__GNUC__) && !defined(__clang__)",
        f"#define WIDEN(p) {_WIDEN[vl]}",
        "#else",
        f"#define WIDEN(p) __builtin_convertvector(*(const i8x{vl} *)(p), i32x{vl})",
        "#endif",
        "#define LOAD_float(p) (*(const vf *)(p))",
        "#define LOAD_i8(p) __builtin_convertvector(WIDEN(p), vf)",
        _MASKED[vl],
        _render_tile(vl, nv),
    ]
    parts += [_render_stream(wt, m, vl) for wt in ("float", "i8") for m in (1, 4)]
    return "\n".join(parts)


_GEMM_TEMPLATE = r"""
/* Row-stable serving GEMMs.  Per output element, exactly:
     acc = +0.0f;  for k ascending: acc = acc + x[i,k] * w[k,j];
   then (optionally) acc * scale[j], then (optionally) acc + bias[j].
   Built with -ffp-contract=off: no multiply-add is ever fused.  Vector
   lanes and register tiles run over i and j only; everything hot is
   explicit vector code, so -O1 is enough and keeps the compile short. */
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("O1")
#endif
typedef long long i64;
typedef signed char i8;
#define VEC(T, NAME, BYTES, ALIGN) \
    typedef T NAME __attribute__((vector_size(BYTES), aligned(ALIGN), may_alias))
VEC(float, f32x16, 64, 4); VEC(float, f32x8, 32, 4); VEC(float, f32x4, 16, 4);
VEC(i8, i8x16, 16, 1);     VEC(i8, i8x8, 8, 1);
VEC(int, i32x16, 64, 4);   VEC(int, i32x8, 32, 4);
typedef char qi16 __attribute__((vector_size(16)));
typedef float v16sf __attribute__((vector_size(64)));  /* the builtins' own */
typedef float v8sf __attribute__((vector_size(32)));
typedef int v8si __attribute__((vector_size(32)));
#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define MAX(a, b) ((a) > (b) ? (a) : (b))
#define NOINLINE static __attribute__((noinline))

#define STRIP (VL * NV)    /* columns of a register tile */
#define PANEL (32 * 1024)  /* floats in the packed panel: 128 KB of stack */
#define NB (32 * STRIP)    /* columns per panel (>= 16 k-rows fit) and per
                              streamed block (4 rows of them stay in L1) */
#define ACC_LD (NB + VL)   /* row stride of the streamed accumulators: never
                              4 KB apart, or loads of one row would falsely
                              alias stores of another */
#define PANEL_M 8          /* rows from which whole strips go through tiles */

#ifdef __AVX512F__  /* tile: 4 rows x 4 x 16 lanes, 16 of 32 zmm accumulate */
@ISA_512@
#else               /* tile: 4 rows x 2 x 8 lanes, 8 of 16 ymm accumulate */
@ISA_256@
#endif

/* All M rows of one strip over kc k-rows of a packed (STRIP-wide) panel. */
NOINLINE void strip_rows(
    const float *x, i64 ldx, i64 M, i64 kc, const float *w,
    float *o, i64 ldo, int first, int last, const float *s, const float *b)
{
    for (i64 i = 0; i < M; i += 4)
        tile(x + i * ldx, ldx, MIN(4, M - i), kc, w,
             o + i * ldo, ldo, first, last, s, b);
}

/* acc row -> out row: * scale, + bias (each optional, each rounded). */
NOINLINE void finish_row(const float *a, float *o, i64 n,
                         const float *scale, const float *bias)
{
    i64 j = 0;
    for (; j + VL <= n; j += VL) {
        vf v = *(const vf *)(a + j);
        if (scale) v = v * *(const vf *)(scale + j);
        if (bias) v = v + *(const vf *)(bias + j);
        *(vf *)(o + j) = v;
    }
    for (; j < n; j++) {
        float v = a[j];
        if (scale) v = v * scale[j];
        if (bias) v = v + bias[j];
        o[j] = v;
    }
}

/* Two ways through x @ w, one accumulation order.

   Few rows (and the columns right of the last whole strip, for any row
   count): rows go four at a time through stream<m>, accumulating in acc
   while w streams past once, sequentially -- at one to four rows the
   product is bound by reading w, and reading it in memory order is what
   a matrix that has fallen out of cache needs.

   Many rows: w is still read row by row, a panel of kc rows at a time,
   laid out strip by strip (int8 converts here, exactly, in registers:
   this panel is the only fp32 form the weights ever take); each strip
   then runs its register tiles off the panel.  Partial sums wait in the
   output between panels, which changes no bit. */
#define GEMM(NAME, WT)                                                      \
NOINLINE void NAME(const float *x, const WT *w, const float *scale,         \
                   const float *bias, float *out, i64 M, i64 K, i64 N)      \
{                                                                           \
    float panel[PANEL] __attribute__((aligned(64)));                        \
    float acc[4 * ACC_LD] __attribute__((aligned(64)));                     \
    const i64 tiled = M >= PANEL_M ? N - N % STRIP : 0;                     \
    for (i64 jb = 0; jb < tiled; jb += NB) {                                \
        const i64 ns = MIN(NB, tiled - jb) / STRIP;                         \
        const i64 kcmax = PANEL / (ns * STRIP);                             \
        for (i64 k0 = 0; k0 < K; k0 += kcmax) {                             \
            const i64 kc = MIN(kcmax, K - k0);                              \
            for (i64 k = 0; k < kc; k++)                                    \
                for (i64 s = 0; s < ns; s++)                                \
                    for (int v = 0; v < NV; v++)                            \
                        *(vf *)(panel + (s * kc + k) * STRIP + v * VL) =    \
                            LOAD_##WT(w + (k0 + k) * N + jb                 \
                                          + s * STRIP + v * VL);            \
            for (i64 s = 0; s < ns; s++) {                                  \
                const i64 j = jb + s * STRIP;                               \
                strip_rows(x + k0, K, M, kc, panel + s * kc * STRIP,        \
                           out + j, N, k0 == 0, k0 + kc == K,               \
                           scale ? scale + j : 0, bias ? bias + j : 0);     \
            }                                                               \
        }                                                                   \
    }                                                                       \
    for (i64 jb = tiled; jb < N; jb += NB) {                                \
        const i64 n = MIN(NB, N - jb);                                      \
        for (i64 i = 0; i < M; i += 4) {                                    \
            /* two and three rows ride the four-row kernel: the spare       \
               rows repeat the last one and are never copied out */         \
            const i64 m = MIN(4, M - i), live = m == 1 ? 1 : 4;             \
            const float *xs[4];                                             \
            for (i64 r = 0; r < live; r++) {                                \
                xs[r] = x + (i + MIN(r, m - 1)) * K;                        \
                for (i64 j = 0; j < n; j += VL) /* rows have VL of slack */ \
                    *(vf *)(acc + r * ACC_LD + j) = (vf){0.0f};             \
            }                                                               \
            if (m == 1)                                                     \
                stream1_##WT(xs, K, w + jb, N, acc, n);                     \
            else                                                            \
                stream4_##WT(xs, K, w + jb, N, acc, n);                     \
            for (i64 r = 0; r < m; r++)                                     \
                finish_row(acc + r * ACC_LD, out + (i + r) * N + jb, n,     \
                           scale ? scale + jb : 0, bias ? bias + jb : 0);   \
        }                                                                   \
    }                                                                       \
}

GEMM(gemm_float, float)
GEMM(gemm_i8, i8)

/* y = x @ w (+ bias): stable_linear. */
void repro_serve_gemm(const float *x, const float *w, const float *bias,
                      float *out, i64 M, i64 K, i64 N)
{
    gemm_float(x, w, 0, bias, out, M, K, N);
}
"""

_GEMM_C = _GEMM_TEMPLATE.replace("@ISA_512@", _render_isa(16, 4)).replace(
    "@ISA_256@", _render_isa(8, 2)
)

_ATTN_C = r"""
/* Causal attention, one query row per (sequence, position).  Row r reads
   slot idx[r]'s first lens[r] keys and nothing past them; per head, the
   two calls around np.exp compute, in this order:
     scores:  s_j = chain_k(q[k] * kt[k][j]) * scale   (the GEMM chain)
              x_j = s_j - max_j s_j       packed (row, head, j) into x
     context: den = chain_j(e_j),  p_j = e_j / den,
              out[dd] = chain_j(p_j * v[j][dd])
   where e = np.exp(x) and every chain starts at +0.0f.  Keys are stored
   transposed (kt: head_dim x cap per slot and head), so both products
   are a row times a matrix, lanes over its columns.  The heads of a row
   share every length, so they go four at a time: independent chains
   side by side hide the add latency a lone chain waits on.  Each entry
   returns the floats of x walked, or -1 (nothing written) when a slot
   index leaves [0, B) or a length leaves [1, cap]. */
#define HG 4  /* heads side by side */

/* o_g[c] = chain_k(x_g[k] * w_g[k * ldw + c]) for c < n and g < live, one
   vector of columns at a time: four chains in flight, one per head.  Only
   a last partial vector is masked (neither read nor written past n);
   heads past live repeat the last one and are not stored. */
#define CHAIN_HEADS(LOAD)                                                   \
    for (i64 k = 0; k < K; k++, w0 += ldw, w1 += ldw, w2 += ldw, w3 += ldw) { \
        a0 = a0 + x0[k] * LOAD(w0); a1 = a1 + x1[k] * LOAD(w1);             \
        a2 = a2 + x2[k] * LOAD(w2); a3 = a3 + x3[k] * LOAD(w3);             \
    }
NOINLINE void chain_heads(const float *const *x, const float *const *w,
                          float *const *o, i64 live, i64 K, i64 ldw, i64 n)
{
    const float *x0 = x[0], *x1 = x[1], *x2 = x[2], *x3 = x[3];
    for (i64 c = 0; c < n; c += VL) {
        const vmask m = MASK(n - c);
        const float *w0 = w[0] + c, *w1 = w[1] + c, *w2 = w[2] + c, *w3 = w[3] + c;
        vf a0 = {0.0f}, a1 = {0.0f}, a2 = {0.0f}, a3 = {0.0f};
        if (n - c >= VL) {
            CHAIN_HEADS(LOAD_float)
        } else {
#define LOAD_tail(p) LOADM(p, m)
            CHAIN_HEADS(LOAD_tail)
#undef LOAD_tail
        }
        STOREM(o[0] + c, a0, m);
        if (live > 1) STOREM(o[1] + c, a1, m);
        if (live > 2) STOREM(o[2] + c, a2, m);
        if (live > 3) STOREM(o[3] + c, a3, m);
    }
}

/* max_j s_j over n >= 1 floats, NaN if any is NaN (as np.max).  Which of
   +0.0 / -0.0 wins is unspecified, and nothing downstream can tell:
   s - (+0.0) == s - (-0.0) but for zeros, and exp(+-0.0) == 1. */
static float max_nan(const float *s, i64 n)
{
    float m = s[0];
    i64 j = 0;
    if (n >= VL) {
        vf mv = LOAD_float(s);
        vi nan = mv != mv;
        for (j = VL; j + VL <= n; j += VL) {
            const vf sv = LOAD_float(s + j);
            const vi gt = sv > mv;
            mv = (vf)(((vi)sv & gt) | ((vi)mv & ~gt));
            nan = nan | (sv != sv);
        }
        for (int l = 0; l < VL; l++)
            if (nan[l]) return __builtin_nanf("");
        m = mv[0];
        for (int l = 1; l < VL; l++)
            if (mv[l] > m) m = mv[l];
    }
    for (; j < n; j++)
        if (s[j] > m || s[j] != s[j]) m = s[j];
    return m;
}

/* s[j] = s[j] OP a for j < n, a vector at a time. */
#define EACH(s, n, OP, a)                                 \
    for (i64 j_ = 0; j_ < (n); j_ += VL) {                \
        const vmask mk_ = MASK((n) - j_);                 \
        STOREM((s) + j_, LOADM((s) + j_, mk_) OP (a), mk_); \
    }

static int attn_rows_ok(const i64 *idx, const i64 *lens, i64 R, i64 B, i64 cap)
{
    for (i64 r = 0; r < R; r++)
        if (idx[r] < 0 || idx[r] >= B || lens[r] < 1 || lens[r] > cap)
            return 0;
    return 1;
}

i64 repro_attn_scores(const float *q, const float *kt, const i64 *idx,
                      const i64 *lens, float *x, i64 R, i64 H, i64 D,
                      i64 B, i64 cap, float scale)
{
    if (!attn_rows_ok(idx, lens, R, B, cap)) return -1;
    float *s = x;
    for (i64 r = 0; r < R; r++) {
        const i64 n = lens[r];
        for (i64 h0 = 0; h0 < H; h0 += HG) {
            const i64 live = MIN(HG, H - h0);
            const float *xs[HG], *ws[HG];
            float *os[HG];
            for (i64 g = 0; g < HG; g++) {
                const i64 h = h0 + MIN(g, live - 1);
                xs[g] = q + (r * H + h) * D;
                ws[g] = kt + (idx[r] * H + h) * D * cap;
                os[g] = s + g * n;
            }
            chain_heads(xs, ws, os, live, D, cap, n);
            for (i64 g = 0; g < live; g++, s += n) {
                EACH(s, n, *, scale)
                const float m = max_nan(s, n);
                EACH(s, n, -, m)
            }
        }
    }
    return s - x;
}

i64 repro_attn_context(float *e, const float *v, const i64 *idx,
                       const i64 *lens, float *out, i64 R, i64 H, i64 D,
                       i64 B, i64 cap)
{
    if (!attn_rows_ok(idx, lens, R, B, cap)) return -1;
    float *p = e;
    for (i64 r = 0; r < R; r++) {
        const i64 n = lens[r];
        for (i64 h0 = 0; h0 < H; h0 += HG) {
            const i64 live = MIN(HG, H - h0);
            const float *ws[HG];
            float *ps[HG], *os[HG];
            for (i64 g = 0; g < HG; g++) {
                const i64 h = h0 + MIN(g, live - 1);
                ps[g] = p + (h - h0) * n;
                ws[g] = v + (idx[r] * H + h) * cap * D;
                os[g] = out + (r * H + h) * D;
            }
            float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
            for (i64 j = 0; j < n; j++) {
                d0 = d0 + ps[0][j]; d1 = d1 + ps[1][j];
                d2 = d2 + ps[2][j]; d3 = d3 + ps[3][j];
            }
            const float den[HG] = {d0, d1, d2, d3};
            for (i64 g = 0; g < live; g++)
                EACH(ps[g], n, /, den[g])
            chain_heads((const float *const *)ps, ws, os, live, n, D, D);
            p += live * n;
        }
    }
    return p - e;
}
"""

_MOE_C = r"""
/* The serving MoE layer, for a plain top-k Router and GELU experts, in
   three calls around np.exp and np.tanh: x is T rows of width H, there
   are E experts of width F and C = T * k routed copies.  Scratch, the
   caller's: ints = order (C) | offs (E + 1) | next (E), and
   fs = inner (C * F) | a (C * F) | g (C * H).  Each step is the
   reference's (repro.moe.inference.moe_forward_ref), in its order:

   repro_moe_route: logits = x @ wr (the serve_gemm chain) into p; 0,
     with nothing more done, if a logit is not finite; else each row
     minus its max (>=: np.maximum keeps the last of equals).
   repro_moe_up, after p = exp(p): p = p / pw32(row); the top k of each
     row, best first, ties to the lower id (a stable argsort of -p), and
     their weights (each over their pairwise sum with normalize); the
     copies grouped by expert, ascending copy id within one (a stable
     argsort, as make_padded_plan); their rows of x gathered into g;
     a = g @ w1 + b1 per occupied expert (w1 int8 with s1: * s1 first);
     inner = C * (a + K * (a * a * a)).
   repro_moe_down, after inner = tanh(inner): a = (0.5 * a) * (1 + t);
     g = a @ w2 + b2 per expert; each copy's row times its weight, then
     stored in its token's row (top-1), or added to it in grouped order
     from +0.0 (top-k, as np.add.at). */

/* max_j r[j] over n >= 1 finite floats, the last of equals. */
static float row_max(const float *r, i64 n)
{
    float m = r[0];
    for (i64 j = 1; j < n; j++)
        if (r[j] >= m) m = r[j];
    return m;
}

i64 repro_moe_route(const float *x, const float *wr, float *p,
                    i64 T, i64 H, i64 E)
{
    gemm_float(x, wr, 0, 0, p, T, H, E);
    for (i64 i = 0; i < T * E; i++)
        if (!isfinite(p[i])) return 0;
    for (i64 t = 0; t < T; t++) {
        float *r = p + t * E;
        const float m = row_max(r, E);
        for (i64 j = 0; j < E; j++) r[j] = r[j] - m;
    }
    return 1;
}

/* One expert product over the grouped rows: x (C, K) -> o (C, N). */
static void moe_experts(const float *x, const i64 *offs, const void *w,
                        const float *scale, const float *bias, float *o,
                        i64 E, i64 K, i64 N)
{
    for (i64 e = 0; e < E; e++) {
        const i64 s = offs[e], m = offs[e + 1] - s;
        if (m <= 0) continue;
        if (scale)
            gemm_i8(x + s * K, (const i8 *)w + e * K * N, scale + e * N,
                    bias + e * N, o + s * N, m, K, N);
        else
            gemm_float(x + s * K, (const float *)w + e * K * N, 0,
                       bias + e * N, o + s * N, m, K, N);
    }
}

void repro_moe_up(float *p, i64 *idx, float *wt, i64 *ints,
                  const float *x, const void *w1, const float *s1,
                  const float *b1, float *fs, i64 T, i64 H, i64 E, i64 F,
                  i64 k, i64 normalize, double k044_, double c_)
{
    const float K044 = (float)k044_, CG = (float)c_;
    const i64 C = T * k;
    i64 *order = ints, *offs = ints + C, *next = offs + E + 1;
    float *inner = fs, *a = fs + C * F, *g = a + C * F;
    for (i64 t = 0; t < T; t++) {
        float *r = p + t * E, *w = wt + t * k;
        i64 *it = idx + t * k;
        const float den = pw32(r, E);
        for (i64 j = 0; j < E; j++) r[j] = r[j] / den;
        for (i64 i = 0; i < k; i++) {
            i64 best = -1;
            for (i64 j = 0; j < E; j++) {
                int taken = 0;
                for (i64 u = 0; u < i; u++) taken |= it[u] == j;
                if (!taken && (best < 0 || r[j] > r[best])) best = j;
            }
            it[i] = best;
            w[i] = r[best];
        }
        if (normalize) {
            const float sum = pw32(w, k);
            for (i64 i = 0; i < k; i++) w[i] = w[i] / sum;
        }
    }
    for (i64 e = 0; e <= E; e++) offs[e] = 0;
    for (i64 c = 0; c < C; c++) offs[idx[c] + 1]++;
    for (i64 e = 0; e < E; e++) {
        offs[e + 1] += offs[e];
        next[e] = offs[e];
    }
    for (i64 c = 0; c < C; c++) order[next[idx[c]]++] = c;
    for (i64 i = 0; i < C; i++)
        memcpy(g + i * H, x + order[i] / k * H, (size_t)H * sizeof(float));
    moe_experts(g, offs, w1, s1, b1, a, E, H, F);
    i64 i = 0;
    for (; i + VL <= C * F; i += VL) {
        const vf v = LOAD_float(a + i);
        vf u = v * v;
        u = u * v;
        u = K044 * u;
        u = v + u;
        *(vf *)(inner + i) = CG * u;
    }
    for (; i < C * F; i++) {
        const float v = a[i];
        float u = v * v;
        u = u * v;
        u = K044 * u;
        u = v + u;
        inner[i] = CG * u;
    }
}

void repro_moe_down(float *fs, const void *w2, const float *s2,
                    const float *b2, const i64 *ints, const float *wt,
                    float *out, i64 T, i64 H, i64 E, i64 F, i64 k)
{
    const i64 C = T * k;
    const i64 *order = ints, *offs = ints + C;
    const float *t = fs;
    float *a = fs + C * F, *g = a + C * F;
    i64 i = 0;
    for (; i + VL <= C * F; i += VL) {
        const vf h = 0.5f * LOAD_float(a + i);
        *(vf *)(a + i) = h * (1.0f + LOAD_float(t + i));
    }
    for (; i < C * F; i++) a[i] = (0.5f * a[i]) * (1.0f + t[i]);
    moe_experts(a, offs, w2, s2, b2, g, E, F, H);
    if (k > 1) memset(out, 0, (size_t)(T * H) * sizeof(float));
    for (i64 r = 0; r < C; r++) {
        const i64 c = order[r];
        const float w = wt[c], *y = g + r * H;
        float *o = out + c / k * H;
        if (k == 1)
            for (i64 j = 0; j < H; j++) o[j] = y[j] * w;
        else
            for (i64 j = 0; j < H; j++) o[j] = o[j] + y[j] * w;
    }
}
"""

_SAMPLE_C = r"""
/* Token sampling (repro.serving.sampling.sample_rows, temperature > 0,
   no top-k cut) in two calls around np.exp, in its order, per row of x
   (B rows of V float32 logits), in float64:
   repro_sample_shift: b = x / temperature (x / 1 is x), minus the row
     max; 0 if a value is NaN or +inf, or every value is -inf (the
     reference then raises: its total is not finite, and otherwise it
     always is).
   repro_sample_pick, after b = exp(b) and with one uniform u per row —
     drawn here, in row order, from a row's NumPy bit generator (its
     next_double: what Generator.random() returns), or else already in
     u: b = b / pw64(b); b = cumsum(b) (sequential; four rows' chains
     side by side); then the first j with b[j] / total > u, or V
     (searchsorted side="right" on the sorted row b / total, each
     quotient taken where the bisection reads it).
   Vector lanes run over j for the elementwise steps only. */

/* numpy/random/bitgen.h's bitgen_t: a bit generator's state and draws. */
typedef struct {
    void *state;
    void *next_uint64, *next_uint32;
    double (*next_double)(void *state);
    void *next_raw;
} repro_bitgen;
#ifdef __AVX512F__
VEC(double, vd, 64, 8); typedef long long vdl __attribute__((vector_size(64)));
typedef f32x8 vfd;  /* the floats of one vd */
#else
VEC(double, vd, 32, 8); typedef long long vdl __attribute__((vector_size(32)));
typedef f32x4 vfd;
#endif
#define VLD ((i64)(sizeof(vd) / sizeof(double)))

/* NumPy's pairwise summation over n contiguous doubles. */
static double pw64(const double *a, i64 n)
{
    if (n < 8) {
        double r = 0.0;
        for (i64 i = 0; i < n; i++) r += a[i];
        return r;
    }
    if (n <= 128) {
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        i64 i = 8;
        for (; i < n - (n % 8); i += 8) {
            r0 += a[i]; r1 += a[i + 1]; r2 += a[i + 2]; r3 += a[i + 3];
            r4 += a[i + 4]; r5 += a[i + 5]; r6 += a[i + 6]; r7 += a[i + 7];
        }
        double r = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) r += a[i];
        return r;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pw64(a, n2) + pw64(a + n2, n - n2);
}

/* p[j] = p[j] / d for j < n. */
static void divide_row(double *p, i64 n, double d)
{
    i64 j = 0;
    for (; j + VLD <= n; j += VLD) *(vd *)(p + j) = *(const vd *)(p + j) / d;
    for (; j < n; j++) p[j] = p[j] / d;
}

i64 repro_sample_shift(const float *x, double *b, i64 B, i64 V,
                       double temperature)
{
    const int scaled = temperature != 1.0;
    for (i64 r = 0; r < B; r++) {
        const float *xr = x + r * V;
        double *br = b + r * V;
        vd mv = (vd){0} - INFINITY;
        vdl bad = {0};
        i64 j = 0;
        for (; j + VLD <= V; j += VLD) {
            vd v = __builtin_convertvector(*(const vfd *)(xr + j), vd);
            if (scaled) v = v / temperature;
            *(vd *)(br + j) = v;
            const vdl gt = v > mv;
            mv = (vd)(((vdl)v & gt) | ((vdl)mv & ~gt));
            bad |= (v != v) | (v == INFINITY);
        }
        double m = -INFINITY;
        for (i64 l = 0; l < VLD; l++) {
            if (bad[l]) return 0;
            if (mv[l] > m) m = mv[l];
        }
        for (; j < V; j++) {
            const double v = scaled ? (double)xr[j] / temperature : (double)xr[j];
            if (v != v || v == INFINITY) return 0;
            br[j] = v;
            if (v > m) m = v;
        }
        if (m == -INFINITY) return 0;
        for (j = 0; j + VLD <= V; j += VLD) *(vd *)(br + j) = *(const vd *)(br + j) - m;
        for (; j < V; j++) br[j] = br[j] - m;
    }
    return 1;
}

void repro_sample_pick(double *b, repro_bitgen *const *gens, double *u,
                       i64 *out, i64 B, i64 V)
{
    for (i64 r = 0; r < B; r++)
        if (gens[r]) u[r] = gens[r]->next_double(gens[r]->state);
    for (i64 r = 0; r < B; r++) divide_row(b + r * V, V, pw64(b + r * V, V));
    i64 r = 0;
    for (; r + 4 <= B; r += 4) {
        double *p0 = b + r * V, *p1 = p0 + V, *p2 = p1 + V, *p3 = p2 + V;
        double c0 = p0[0], c1 = p1[0], c2 = p2[0], c3 = p3[0];
        for (i64 j = 1; j < V; j++) {
            c0 = c0 + p0[j]; c1 = c1 + p1[j]; c2 = c2 + p2[j]; c3 = c3 + p3[j];
            p0[j] = c0; p1[j] = c1; p2[j] = c2; p3[j] = c3;
        }
    }
    for (; r < B; r++) {
        double *p = b + r * V, c = p[0];
        for (i64 j = 1; j < V; j++) p[j] = c = c + p[j];
    }
    for (r = 0; r < B; r++) {
        const double *br = b + r * V, total = br[V - 1];
        /* cdf[j] = b[j] / total, divided where the bisection reads it. */
        i64 lo = 0, hi = V;
        while (lo < hi) {
            const i64 mid = lo + (hi - lo) / 2;
            if (br[mid] / total <= u[r]) lo = mid + 1;
            else hi = mid;
        }
        out[r] = lo;
    }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif
"""


# ----------------------------------------------------------------------
# Runners: ``(out,)``, or ``None`` when the C finds an index out of range
# (the reference then decides, and raises where it must)
# ----------------------------------------------------------------------
def _gemm_forward(b):
    cfn = b.lib.repro_serve_gemm

    def run(x, w, bias):
        k, n = w.shape
        out = np.empty(x.shape[:-1] + (n,), F4)
        cfn(addr(x), addr(w), None if bias is None else addr(bias), addr(out),
            x.size // k, k, n)
        return (out,)

    return run


def _attention_forward(b):
    scores, context = b.lib.repro_attn_scores, b.lib.repro_attn_context

    def run(q, k, v, kv_index, lengths, scale):
        rows, heads, d = q.shape
        slots, cap = k.shape[0], k.shape[3]
        total = int(lengths.sum())
        if not rows <= total <= rows * cap:  # some length is out of range
            return None
        x = np.empty(heads * total, F4)
        ix, ln = addr(kv_index), addr(lengths)
        if scores(addr(q), addr(k), ix, ln, addr(x), rows, heads, d, slots, cap, scale) < 0:
            return None
        np.exp(x, out=x)
        out = np.empty((rows, heads * d), F4)
        context(addr(x), addr(v), ix, ln, addr(out), rows, heads, d, slots, cap)
        return (out,)

    return run


def _moe_tables(layer, router):
    """The layer's tables ``(wr, w1, s1, b1, w2, s2, b2)`` as the C reads
    them (``s1``/``s2`` are ``None`` until quantized) and their weight
    dtype."""
    q, ex = getattr(layer, "_quantized", None), layer.experts
    wr = router.proj.weight.data
    if q is None:
        return F4, (wr, ex.w1.data, None, ex.b1.data, ex.w2.data, None, ex.b2.data)
    return I8, (wr, q.q1, q.s1, q.b1, q.q2, q.s2, q.b2)


def _moe_bind(wdt, tables, top_k, h):
    """The tables' pointers ``(wr, w1, s1, b1, w2, s2, b2)`` and
    ``(E, F)`` when the C takes them — contiguous float32 (``w1`` and
    ``w2`` int8 with their scales once quantized), more than one expert,
    every GEMM wider than one column (the serve_gemm contract) and
    ``1 <= top_k <= E`` — else ``None``."""
    e, f = tables[0].shape[-1], tables[1].shape[-1]
    want = zip(tables, (F4, wdt, F4, F4, wdt, F4, F4),
               ((h, e), (e, h, f), (e, f), (e, f), (e, f, h), (e, h), (e, h)))
    for a, dtype, shape in want:
        if a is not None and not (
            type(a) is ndarray and a.dtype is dtype and a.shape == shape
            and a.flags.c_contiguous
        ):
            return None
    if min(e, f, h) < 2 or not 1 <= top_k <= e:
        return None
    return tuple(None if a is None else addr(a) for a in tables), e, f


def moe_layer_step(lib, layer, x, out):
    """``serve_moe`` bound once to ``layer`` and the row buffers ``x`` and
    ``out`` (contiguous float32 ``(R, H)``): ``rows(t)`` is the step over
    their first ``t <= R`` rows — it derives the calls' arguments and
    allocates nothing.  ``step()`` runs the layer into ``out[:t]``, sets
    ``layer.last_routing`` and returns ``True``, or returns ``False``
    having written nothing (a non-finite logit: the reference's uniform
    routing).  ``None`` when the C does not take the layer: not the plain
    ``Router`` with GELU experts, or tables outside :func:`_moe_bind`'s
    terms.  A step reads the tables bound here, so a caller that keeps
    ``rows`` binds again when a table changes."""
    from repro.autograd.tensor import Tensor
    from repro.moe.router import Router, RoutingResult

    router = layer.router
    if type(router) is not Router or layer.activation != "gelu":
        return None
    r, h = x.shape
    k = router.top_k
    bound = _moe_bind(*_moe_tables(layer, router), k, h)
    if bound is None:
        return None
    (pr, p1, ps1, pb1, p2, ps2, pb2), e, f = bound
    # Sized for all R rows; ``t`` rows use each buffer's prefix (the C
    # lays its scratch out from ``t``).
    p, idx, wt = np.empty((r, e), F4), np.empty((r, k), I64), np.empty((r, k), F4)
    ints, fs = np.empty(r * k + 2 * e + 1, I64), np.empty(r * k * (2 * f + h), F4)
    px, pp, pw, pi, pf = addr(x), addr(p), addr(wt), addr(ints), addr(fs)
    pidx, pout = addr(idx), addr(out)
    route, up, down = lib.repro_moe_route, lib.repro_moe_up, lib.repro_moe_down
    normalize = router.normalize_weights and k > 1
    exp, tanh, __dict__ = np.exp, np.tanh, layer.__dict__

    def rows(t):
        c = t * k
        pt, it, wtt, inner = p[:t], idx[:t], wt[:t], fs[: c * f]
        route_args = (px, pr, pp, t, h, e)
        up_args = (pp, pidx, pw, pi, px, p1, ps1, pb1, pf, t, h, e, f, k,
                   normalize, _K044, _C)
        down_args = (pf, p2, ps2, pb2, pi, pw, pout, t, h, e, f, k)
        flops = 2 * t * h * (e + 2 * k * f)

        def step():
            if not route(*route_args):
                return False
            exp(pt, pt)
            up(*up_args)
            tanh(inner, inner)
            down(*down_args)
            # Copies: a later step reuses the buffers.  (Module.__setattr__
            # registers parameters and modules only.)
            __dict__["last_routing"] = RoutingResult(
                it.copy(), Tensor(wtt.copy()), Tensor(pt.copy()), None, None
            )
            _GEMM_CALLS.value += 3
            _GEMM_FLOPS.value += flops
            return True

        return step

    rows.buffers = p, idx, wt, ints, fs  # the C holds their addresses: they live as long
    return rows


def _moe_forward(b):
    def run(layer, x):
        out = np.empty(x.shape, F4)
        rows = moe_layer_step(b.lib, layer, x, out)
        return rows is not None and rows(len(x))() and (out,)

    return run


#: The ``bitgen_t *`` a NumPy bit generator's capsule holds.
_BITGEN = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def sample_step(lib, rows, v, temperature, gens):
    """``serve_sample`` bound once to ``rows`` rows of ``v`` float32
    logits at ``temperature > 0`` without a top-k cut, drawing from
    ``gens``: ``step(logits)`` draws one token per row into an int64
    array it reuses and returns it, or returns ``False``, having drawn
    nothing, where the reference decides — a non-finite row (the
    reference raises).  ``step.bind(gens)`` draws from other generators
    on the same buffers.  A NumPy ``Generator``'s draw is its bit
    generator's ``next_double``, called from the C; any other generator's
    ``random()`` is called here, in row order."""
    shift, pick = lib.repro_sample_shift, lib.repro_sample_pick
    buf, out = np.empty((rows, v), F8), np.empty(rows, I64)
    u, bitgens = (ctypes.c_double * rows)(), (ctypes.c_void_p * rows)()
    pb, pg, pu, po = addr(buf), ctypes.addressof(bitgens), ctypes.addressof(u), addr(out)
    exp, t, draws, held = np.exp, float(temperature), (), {}

    def bind(gens):
        # ``held`` keeps each bound generator, and so its bit generator,
        # alive; one still bound keeps its pointer.
        nonlocal draws, held
        own, seen = [], {}
        for r, g in enumerate(gens):
            if type(g) is np.random.Generator:
                p = held.get(g) or _BITGEN(g.bit_generator.capsule, b"BitGenerator")
                bitgens[r] = seen[g] = p
            else:
                bitgens[r] = None
                own.append((r, g.random))
        draws, held = tuple(own), seen

    def step(logits):
        if not shift(addr(logits), pb, rows, v, t):
            return False
        exp(buf, buf)
        for r, draw in draws:
            u[r] = draw()
        pick(pb, pg, pu, po, rows, v)
        return out

    bind(gens)
    step.bind = bind
    step.buffers = buf, u, bitgens  # the C holds their addresses: they live as long
    return step


def _sample_forward(b):
    def run(logits, temperature, top_k, gens):
        rows, v = logits.shape
        if temperature <= 0 or top_k is not None and top_k < v:
            return False  # greedy, or a top-k cut: the reference's
        out = sample_step(b.lib, rows, v, temperature, gens)(logits)
        return out is not False and (out,)

    return run


# ----------------------------------------------------------------------
# Contracts: what the C takes; anything else runs the reference
# ----------------------------------------------------------------------
# One clause per entry beyond the layouts, written out flat: each clause
# is a call on every serving product, and a decode step makes dozens.
_GEMM_CONTRACT = Contract(
    Arr(0),
    Arr(1, rank=2),
    # N == 1 is einsum's own business: it then reduces over k with SIMD
    # partial sums, a different order, kept as is.
    Rel("x's width is w's height, N > 1, x not empty, bias absent or a "
        "contiguous float32 (N,)",
        lambda x, w, b: x.shape[-1] == w.shape[0] and w.shape[1] > 1 and x.size and (
            b is None or type(b) is ndarray and b.dtype is F4
            and b.shape == w.shape[1:] and b.flags.c_contiguous)),
)


_ATTN_CONTRACT = Contract(
    Arr(0, rank=3),
    Arr(1, rank=4),
    Arr(2, rank=4),
    Arr(3, I64, rank=1),
    Arr(4, I64, rank=1),
    Rel("k, v, kv_index and lengths fit q's rows and heads, q not empty",
        lambda q, k, v, i, n, s: k.shape[1:3] == q.shape[1:] and v.shape[0] == k.shape[0]
        and v.shape[1:] == (q.shape[1], k.shape[3], q.shape[2])
        and i.shape == n.shape == q.shape[:1] and q.size),
)


# ----------------------------------------------------------------------
# Check draws (the shapes that reach every path), fuzz domains, rows
# ----------------------------------------------------------------------
def _gemm_args(rng, m, k, n, lead=False):
    x = f32(rng, m, k)
    return x.reshape(m, 1, k) if lead else x, f32(rng, k, n), f32(rng, n)


def _gemm_checks(rng):
    """One streamed row; streamed rows with spares; register tiles off a
    panel walked in two k-chunks, a short last tile, streamed edge
    columns."""
    return [_gemm_args(rng, m, k, n) for m, k, n in ((1, 7, 3), (3, 40, 128), (9, 300, 160))]


def _gemm_fuzz(rng):
    m, k, n = (int(rng.integers(lo, hi)) for lo, hi in ((1, 41), (1, 301), (2, 301)))
    return _gemm_args(rng, m, k, n, lead=rng.random() < 0.3)


def _gemm_rows(args, pick):
    x, w, b = args
    return x.reshape(-1, x.shape[-1])[pick], w, b


def _attention_args(rng, heads, d, cap, kv_index, lengths, slots, scale=0.37):
    """Keys and values past the longest row reading a slot are NaN: the
    kernels must never read them."""
    q, k, v = f32(rng, len(lengths), heads, d), f32(rng, slots, heads, d, cap), f32(
        rng, slots, heads, cap, d
    )
    kv_index, lengths = np.array(kv_index, np.int64), np.array(lengths, np.int64)
    for slot in range(slots):
        longest = lengths[kv_index == slot].max(initial=0)
        k[slot, ..., longest:] = np.nan
        v[slot, :, longest:] = np.nan
    return q, k, v, kv_index, lengths, scale


def _attention_checks(rng):
    """Rows of length 1 up to the cache's capacity, out of slot order."""
    return [_attention_args(rng, 2, 19, 37, [2, 0, 2, 1], [1, 37, 20, 5], 3, 0.3)]


def _attention_fuzz(rng):
    cap, slots = int(rng.integers(1, 71)), int(rng.integers(1, 4))
    lengths = rng.permutation([1, cap, *rng.integers(1, cap + 1, size=int(rng.integers(0, 6)))])
    return _attention_args(
        rng, int(rng.choice([1, 2, 4])), int(rng.choice([1, 3, 16, 64])), cap,
        rng.integers(0, slots, size=len(lengths)), lengths, slots,
    )


def _attention_rows(args, pick):
    q, k, v, kv_index, lengths, scale = args
    return q[pick], k, v, kv_index[pick], lengths[pick], scale


def _moe_layer(rng, t, h, f, e, k, kind="moe", int8=False, normalize=False,
               router_scale=1.0):
    """A served MoE layer of ``kind`` (``moe``: ``MoELayer``, ``dmoe``:
    ``dMoE``) with random tables, and ``t`` random token rows for it."""
    from repro.core import dMoE
    from repro.moe.moe_layer import MoELayer
    from repro.serving.quantize import attach_quantized_experts

    seed = int(rng.integers(1 << 30))
    if kind == "dmoe":
        layer = dMoE(h, f, e, top_k=k, block_size=f, rng=seed)
    else:
        layer = MoELayer(h, f, e, top_k=k, rng=seed)
    layer.router.normalize_weights = normalize
    layer.router.proj.weight.data[...] = f32(rng, h, e) * np.float32(router_scale)
    ex = layer.experts
    for w, scale in ((ex.w1, h**-0.5), (ex.b1, 0.1), (ex.w2, f**-0.5), (ex.b2, 0.1)):
        w.data[...] = f32(rng, *w.data.shape) * np.float32(scale)
    if int8:
        attach_quantized_experts(layer)
    return layer, f32(rng, t, h)


def _moe_checks(rng):
    """Top-1 over one token (a ``dMoE``); top-2, renormalized, with
    empty experts; every token tied on one expert pair (a zero router);
    int8 tables over rows enough for the GEMM's register tiles."""
    zero, zx = _moe_layer(rng, 5, 16, 24, 4, 2)
    zero.router.proj.weight.data[...] = 0
    return [
        _moe_layer(rng, 1, 32, 48, 8, 1, kind="dmoe"),
        _moe_layer(rng, 3, 19, 33, 8, 2, normalize=True),
        (zero, zx),
        _moe_layer(rng, 40, 24, 70, 3, 1, int8=True, router_scale=0.1),
    ]


def _moe_fuzz(rng):
    e = int(rng.integers(2, 10))
    return _moe_layer(
        rng, int(rng.integers(1, 24)), int(rng.integers(2, 40)), int(rng.integers(2, 80)),
        e, int(rng.integers(1, min(e, 3) + 1)), kind=("moe", "dmoe")[int(rng.integers(2))],
        int8=rng.random() < 0.3, normalize=rng.random() < 0.5,
        router_scale=float(rng.choice([0.0, 0.1, 1.0, 10.0])),
    )


def _moe_rows(args, pick):
    layer, x = args
    return layer, x[pick]


class _Uniform:
    """A generator stand-in for the sampling draws whose ``random()``
    always returns one value: a check or a fuzz draw runs the entry and
    its reference on the same operands, so a draw may not depend on
    which ran first."""

    __slots__ = ("u",)

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def _sample_args(rng, rows, v, temperature=1.0, top_k=None, scale=3.0, neg_inf=0):
    x = f32(rng, rows, v) * np.float32(scale)
    x.flat[rng.choice(x.size, size=neg_inf, replace=False)] = -np.inf
    return x, temperature, top_k, [_Uniform(float(u)) for u in rng.random(rows)]


def _sample_checks(rng):
    """A decode step's rows over a 512-token vocabulary; one row of
    three; rows wider than 128 (the pairwise sum splits) with -inf
    logits, a top-k that cuts nothing, and most probabilities flushed
    to zero (flat stretches of the cdf); a draw of exactly 0."""
    x, t, k, gens = _sample_args(rng, 3, 300, 1.3, 300, scale=60.0, neg_inf=40)
    gens[0] = _Uniform(0.0)
    return [_sample_args(rng, 4, 512), _sample_args(rng, 1, 3, 0.7), (x, t, k, gens)]


def _sample_fuzz(rng):
    v = int(rng.integers(1, 700))
    return _sample_args(
        rng, int(rng.integers(1, 9)), v, float(rng.choice([0.3, 1.0, 2.5])),
        None if rng.random() < 0.7 else int(rng.integers(v, v + 3)),
        scale=float(rng.choice([0.1, 3.0, 40.0])), neg_inf=int(rng.integers(0, v // 2 + 1)),
    )


def _sample_rows(args, pick):
    x, t, k, gens = args
    return x[pick], t, k, [gens[i] for i in pick]


GEMM = Kernel(
    "serve_gemm", "repro.serving.kernels._linear_ref",
    source=_GEMM_C,
    contract=_GEMM_CONTRACT,
    forward=_gemm_forward,
    fuzz=_gemm_fuzz,
    checks=_gemm_checks,
    rows=_gemm_rows,
)
ATTENTION = Kernel(
    "attn_rows", "repro.serving.kernels._attention_rows_ref",
    source=_ATTN_C,
    contract=_ATTN_CONTRACT,
    forward=_attention_forward,
    fuzz=_attention_fuzz,
    checks=_attention_checks,
    rows=_attention_rows,
)

MOE = Kernel(
    "serve_moe", "repro.moe.inference.moe_forward_ref",
    source=_MOE_C,
    contract=Contract(
        Arr(1, rank=2),
        Live("x not empty", lambda layer, x: x.size),
    ),
    forward=_moe_forward,
    fuzz=_moe_fuzz,
    checks=_moe_checks,
    rows=_moe_rows,
)

SAMPLE = Kernel(
    "serve_sample", "repro.serving.sampling.sample_rows",
    source=_SAMPLE_C,
    contract=Contract(
        Arr(0, rank=2),
        Live("rows not empty, one generator per row",
             lambda x, t, k, g: x.size and len(g) == x.shape[0]),
    ),
    forward=_sample_forward,
    fuzz=_sample_fuzz,
    checks=_sample_checks,
    rows=_sample_rows,
)

KERNELS = (GEMM, ATTENTION, MOE, SAMPLE)
