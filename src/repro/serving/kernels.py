"""Bitwise shape-stable inference kernels: the GEMMs and attention.

The serving path promises logits from KV-cached single-token decode that
are *bit-identical* to an uncached full-window forward.  That promise is
impossible through the training kernels: NumPy's BLAS-backed ``matmul``
picks different blocking (and therefore different floating-point
summation orders) for different row counts, so ``(A @ B)[t]`` generally
differs in the last bit from ``A[t:t+1] @ B``.

The contract that makes a stable path possible is an *accumulation
order*, stated per output element::

    acc = +0.0f
    for k in 0 .. K-1:  acc = acc + x[i, k] * w[k, j]     (no FMA)
    y[i, j] = acc  (then ``* scale[j]``, then ``+ bias[j]``, each rounded)

Element ``(i, j)`` reads row ``i`` of ``x`` and column ``j`` of ``w`` and
nothing else, so a row's result cannot depend on how many other rows
share the call — row-stability by construction.  Two implementations
honour it:

- ``np.einsum("ij,jk->ik", x, w)`` for ``N > 1``: its iterator makes the
  output column the inner loop and walks ``k`` outside it, multiplying
  and adding unfused (the loop is built for the SSE baseline).  This is
  the *reference* and the fallback.
- the generated-C family below (:data:`C_SOURCE`): the same chain,
  compiled through the lowering toolchain (same flags —
  ``-ffp-contract=off`` keeps the multiply and the add apart — same disk
  cache, same ``REPRO_NO_CC`` switch).  Eight or more rows run register
  tiles of 4 rows x 64 columns off a packed panel of ``w``; fewer rows
  (where the product is bound by reading ``w``) accumulate in memory
  while ``w`` streams past once.  Either way vector lanes and tiles run
  over ``i`` and ``j`` only; a column's ``k`` chain is never reordered
  or reassociated, so the bits are einsum's.

Attention states its order the same way.  :func:`attention_rows` takes
every query row of a layer — all ``(sequence, position)`` rows of a
prefill, or the active slots of a decode step — and per row ``r`` and
head, over keys ``j < lengths[r]`` only::

    s_j = chain_k(q[k] * K[j, k]) * scale      (the chain above)
    x_j = s_j - max_j s_j
    e   = np.exp(x)                            (one contiguous buffer)
    p_j = e_j / chain_j(e_j)
    ctx = chain_j(p_j * V[j])                  (every chain from +0.0)

Two C calls run the steps around ``np.exp``, which both implementations
share; :func:`_attention_rows_ref` reproduces the rest bit for bit in
NumPy.  Keys are stored transposed (``(slots, heads, d, cap)``) so both
products stream contiguous rows.  Prefill and decode send the same rows
through the same code, so cached equals uncached and no row depends on
the rows beside it.

The native family is bound lazily on the first eligible call and must
pass a bitwise self-check against the references before it serves
anything; a missing toolchain, a failed compile or a failed check leaves
every entry point on them (``serve_native_fallbacks`` counts those
calls).  A single call also declines to the reference when an operand is
not C-contiguous float32 or is empty, or when a GEMM has ``N == 1``
(einsum then reduces over ``k`` with SIMD partial sums — a different
order, kept as is).  NaN *payloads* are outside the contract: which NaN
survives ``NaN + NaN`` depends on operand order, which a compiler may
swap.

Left alone on purpose: :func:`stable_matmul_tb` (tied LM head — einsum's
``ij,kj`` order is a SIMD partial-sum reduction, row-stable but not this
chain).

Every GEMM through this module adds to the registry counters
``serve_gemm_calls`` / ``serve_gemm_flops``, every attention call to
``serve_attn_calls`` / ``serve_attn_flops`` (``4 * heads * d`` per key a
row reads), and either kind to ``serve_native_calls`` when the C kernel
ran.

Plain NumPy on plain arrays: no Tensor, no tape.  ``repro.nn`` imports
this module, so beyond the metrics registry and the toolchain it imports
nothing from the package.
"""

from __future__ import annotations

import ctypes
import logging
from typing import Optional

import numpy as np

from repro.autograd.lower import toolchain
from repro.observability.metrics import registry

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# The C source: two rendered kernels per ISA inside a fixed driver
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


_C_TEMPLATE = r"""
/* Row-stable serving GEMMs.  Per output element, exactly:
     acc = +0.0f;  for k ascending: acc = acc + x[i,k] * w[k,j];
   then (optionally) acc * scale[j], then (optionally) acc + bias[j].
   Built with -ffp-contract=off: no multiply-add is ever fused.  Vector
   lanes and register tiles run over i and j only; everything hot is
   explicit vector code, so -O1 is enough and keeps the compile short. */
#if defined(__GNUC__) && !defined(__clang__)
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

/* y = x @ w (+ bias): stable_linear / stable_matmul. */
void repro_serve_gemm(const float *x, const float *w, const float *bias,
                      float *out, i64 M, i64 K, i64 N)
{
    gemm_float(x, w, 0, bias, out, M, K, N);
}

/* Every expert group of one product in one call.  offs is the (G+1,)
   row prefix sum over x's T rows; empty groups are skipped.  Returns the
   rows computed, or -1 (nothing written) if a group leaves [0, T]. */
#define GROUPED(NAME, WT)                                                   \
i64 NAME(const float *x, const i64 *offs, const WT *w, const float *scale,  \
         const float *bias, float *out, i64 T, i64 G, i64 K, i64 N)         \
{                                                                           \
    i64 rows = 0;                                                           \
    for (i64 g = 0; g < G; g++)                                             \
        if (offs[g] < offs[g + 1] && (offs[g] < 0 || offs[g + 1] > T))      \
            return -1;                                                      \
    for (i64 g = 0; g < G; g++) {                                           \
        const i64 s = offs[g], m = offs[g + 1] - s;                         \
        if (m <= 0) continue;                                               \
        gemm_##WT(x + s * K, w + g * K * N, scale ? scale + g * N : 0,      \
                  bias ? bias + g * N : 0, out + s * N, m, K, N);           \
        rows += m;                                                          \
    }                                                                       \
    return rows;                                                            \
}

GROUPED(repro_serve_grouped, float)
GROUPED(repro_serve_grouped_i8, i8)

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

C_SOURCE = _C_TEMPLATE.replace("@ISA_512@", _render_isa(16, 4)).replace(
    "@ISA_256@", _render_isa(8, 2)
)
_TAG = "serve"
# Built behind the process's first compile, if there is one before the
# first serving GEMM (a trainer's step graph): see toolchain.prebuild.
toolchain.prebuild(_TAG, lambda: C_SOURCE)

_F32 = np.dtype(np.float32)
_I8 = np.dtype(np.int8)
_I64 = np.dtype(np.int64)

_REG = registry()

# None = not bound yet; False = unavailable (every call runs on the NumPy
# reference and counts as a fallback); else the ``(gemm, grouped,
# grouped_i8, attn_scores, attn_context)`` functions.
_native: object = None


def _addr(a: np.ndarray) -> int:
    """Data pointer of a C-contiguous, non-empty array.  The buffer
    export costs a third of ``a.ctypes.data``, which is most of a
    hidden-64 GEMM; only a read-only array needs the slow spelling."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:
        return a.ctypes.data


def _count(flops: int, native: bool, kind: str = "gemm") -> None:
    counter = _REG.counter
    counter(f"serve_{kind}_calls").value += 1
    counter(f"serve_{kind}_flops").value += flops
    if native:
        counter("serve_native_calls").value += 1
    elif _native is False:
        counter("serve_native_fallbacks").value += 1


def work_summary(gemm_flops: int, attn_flops: int, seconds: float, wall: str) -> str:
    """Three lines for a serving report: the process's kernel calls by
    rung (GEMM and attention calls alike), then the GEMM and the attention
    FLOPs given (the caller's shares of ``serve_gemm_flops`` /
    ``serve_attn_flops``), each as a rate over the ``seconds`` of ``wall``
    they were spent in."""
    value = lambda name: _REG.counter(name).value  # noqa: E731

    def rate(flops: int) -> str:
        gflop = flops / 1e9
        achieved = gflop / seconds if seconds > 0 else 0.0
        return f"{gflop:.3f}  achieved={achieved:.2f} GFLOP/s of {wall}"

    return (
        f"kernel calls: native={value('serve_native_calls')}  "
        f"fallbacks={value('serve_native_fallbacks')}\n"
        f"gemm_calls={value('serve_gemm_calls')}  gemm_gflop={rate(gemm_flops)}\n"
        f"attn_calls={value('serve_attn_calls')}  attn_gflop={rate(attn_flops)}"
    )


# ----------------------------------------------------------------------
# Binding: compile (or load from the cache), then prove the bits
# ----------------------------------------------------------------------
def _self_check(gemm, grouped, grouped_i8, attn_scores, attn_context) -> bool:
    """The raw C functions vs their references, bitwise, on a few shapes
    that cover every path: one streamed row, streamed rows with spares,
    register tiles off a panel walked in two k-chunks with a short last
    tile and streamed edge columns, both epilogues, int8 conversion,
    skipped groups; attention rows of length 1 to the cache's capacity,
    out of slot order, with NaN past every row's length."""
    rng = np.random.default_rng(0)

    def f32(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    def same(a, b):
        return bool((a.view(np.uint32) == b.view(np.uint32)).all())

    for m, k, n in ((1, 7, 3), (3, 40, 128), (9, 300, 160)):
        x, w, b, got = f32(m, k), f32(k, n), f32(n), np.zeros((m, n), np.float32)
        gemm(_addr(x), _addr(w), _addr(b), _addr(got), m, k, n)
        if not same(got, np.einsum("ij,jk->ik", x, w) + b):
            return False
    x, offs = f32(11, 24), np.array([0, 0, 9, 10, 11], dtype=np.int64)
    w, b, s = f32(4, 24, 70), f32(4, 70), f32(4, 70)
    q = rng.integers(-127, 128, size=w.shape).astype(np.int8)
    for fn, wt, sc in ((grouped, w, None), (grouped_i8, q, s)):
        got, want = np.zeros((11, 70), np.float32), np.zeros((11, 70), np.float32)
        rows = fn(
            _addr(x), _addr(offs), _addr(wt), None if sc is None else _addr(sc),
            _addr(b), _addr(got), 11, 4, 24, 70,
        )
        for g in range(4):
            lo, hi = offs[g], offs[g + 1]
            if lo < hi:
                y = np.einsum("ij,jk->ik", x[lo:hi], wt[g].astype(np.float32))
                if sc is not None:
                    y *= sc[g]
                want[lo:hi] = y + b[g]
        if rows != 11 or not same(got, want):
            return False
    q, k, v = f32(4, 2, 19), f32(3, 2, 19, 37), f32(3, 2, 37, 19)
    kv_index = np.array([2, 0, 2, 1], dtype=np.int64)
    lengths = np.array([1, 37, 20, 5], dtype=np.int64)
    for slot in range(3):  # NaN past the longest row of each slot
        longest = lengths[kv_index == slot].max()
        k[slot, ..., longest:] = np.nan
        v[slot, :, longest:] = np.nan
    got = _attention_native(
        attn_scores, attn_context, q, k, v, kv_index, lengths, int(lengths.sum()), 0.3
    )
    return same(got, _attention_rows_ref(q, k, v, kv_index, lengths, 0.3))


def _load():
    """Compile (or load from the cache) and declare the C family: its
    ``(gemm, grouped, grouped_i8, attn_scores, attn_context)`` functions,
    unchecked, or ``None`` without a toolchain."""
    lib = toolchain.compile_and_load(C_SOURCE, tag=_TAG)
    if lib is None:
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_longlong
    lib.repro_serve_gemm.argtypes = [ptr] * 4 + [i64] * 3
    lib.repro_serve_gemm.restype = None
    for fn in (lib.repro_serve_grouped, lib.repro_serve_grouped_i8):
        fn.argtypes = [ptr] * 6 + [i64] * 4
        fn.restype = i64
    lib.repro_attn_scores.argtypes = [ptr] * 5 + [i64] * 5 + [ctypes.c_float]
    lib.repro_attn_context.argtypes = [ptr] * 5 + [i64] * 5
    lib.repro_attn_scores.restype = lib.repro_attn_context.restype = i64
    return (
        lib.repro_serve_gemm, lib.repro_serve_grouped, lib.repro_serve_grouped_i8,
        lib.repro_attn_scores, lib.repro_attn_context,
    )


def _bind():
    """Load the C family and self-check it; pins ``_native``."""
    global _native
    fns = _load()
    if fns is None:
        # The toolchain has logged its one warning (now or earlier).
        _native = False
    elif _self_check(*fns):
        _native = fns
    else:
        _native = False
        logger.warning(
            "serving kernels failed their bitwise self-check against their "
            "NumPy references; serving stays on the references"
        )
    return _native


def _reset_for_tests() -> None:
    """Forget the binding so the next call binds again."""
    global _native
    _native = None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _linear_ref(x, weight, bias):
    lead = x.shape[:-1]
    y = np.einsum("ij,jk->ik", x.reshape(-1, x.shape[-1]), weight)
    if bias is not None:
        y += bias
    return y.reshape(lead + (weight.shape[-1],))


def stable_linear(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-stable ``x @ weight + bias`` over arbitrary leading dimensions
    (one native call: GEMM with the bias add as its epilogue)."""
    k = x.shape[-1]
    n = weight.shape[-1]
    flops = 2 * x.size * n
    fns = _native if _native is not None else _bind()
    if (
        fns
        and n > 1
        and x.size
        and x.dtype is _F32
        and weight.dtype is _F32
        and weight.shape == (k, n)
        and x.flags.c_contiguous
        and weight.flags.c_contiguous
        and (
            bias is None
            or (bias.dtype is _F32 and bias.shape == (n,) and bias.flags.c_contiguous)
        )
    ):
        out = np.empty(x.shape[:-1] + (n,), dtype=np.float32)
        fns[0](
            _addr(x), _addr(weight), None if bias is None else _addr(bias),
            _addr(out), x.size // k, k, n,
        )
        _count(flops, True)
        return out
    _count(flops, False)
    return _linear_ref(x, weight, bias)


def stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D operands, bitwise independent of ``a``'s row count."""
    return stable_linear(a, b)


def stable_matmul_tb(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` for 2-D operands, row-stable (used by the tied LM head).

    Stays on einsum: its ``ij,kj`` order sums SIMD partial sums over the
    contiguous ``j``, which is not the strict chain the C family runs."""
    _count(2 * a.size * b.shape[0], False)
    return np.einsum("ij,kj->ik", a, b)


def stable_grouped_into(
    out: np.ndarray,
    x: np.ndarray,
    offsets: np.ndarray,
    stacked_w: np.ndarray,
    stacked_b: Optional[np.ndarray] = None,
    scale: Optional[np.ndarray] = None,
) -> bool:
    """All row groups of one expert product in one native call:
    ``out[s_g:e_g] = x[s_g:e_g] @ w[g] (* scale[g]) (+ b[g])``.

    ``stacked_w`` is float32, or int8 with float32 per-output-channel
    ``scale`` — converted in-register, so no fp32 copy of the weights
    exists.  Returns ``False`` with ``out`` untouched when the call
    declines (see the module docstring); the caller then runs the
    per-group reference loop
    (:func:`repro.sparse.dispatch.grouped_rows_gemm`)."""
    fns = _native if _native is not None else _bind()
    if not fns or stacked_w.ndim != 3 or x.ndim != 2:
        return False
    g, k, n = stacked_w.shape
    t = x.shape[0]
    fn = fns[1] if scale is None else fns[2]
    if not (
        n > 1
        and x.size
        and stacked_w.size
        and x.dtype is _F32
        and stacked_w.dtype is (_F32 if scale is None else _I8)
        and out.dtype is _F32
        and x.shape[1] == k
        and out.shape == (t, n)
        and x.flags.c_contiguous
        and stacked_w.flags.c_contiguous
        and out.flags.c_contiguous
    ):
        return False
    for extra in (stacked_b, scale):
        if extra is not None and not (
            extra.dtype is _F32 and extra.shape == (g, n) and extra.flags.c_contiguous
        ):
            return False
    offs = np.ascontiguousarray(offsets, dtype=_I64)
    if offs.shape != (g + 1,):
        return False
    rows = fn(
        _addr(x), _addr(offs), _addr(stacked_w),
        None if scale is None else _addr(scale),
        None if stacked_b is None else _addr(stacked_b),
        _addr(out), t, g, k, n,
    )
    if rows < 0:  # a group reaches outside x's rows: let NumPy decide
        return False
    _count(2 * rows * k * n, True)
    return True


# ----------------------------------------------------------------------
# Attention rows: every query row of a layer in two calls around np.exp
# ----------------------------------------------------------------------
def _bad_rows(kv_index: np.ndarray, lengths: np.ndarray, slots: int, cap: int):
    return ValueError(
        f"attention rows need 0 <= kv_index < {slots} and 1 <= lengths <= {cap}; "
        f"got kv_index in [{kv_index.min()}, {kv_index.max()}], "
        f"lengths in [{lengths.min()}, {lengths.max()}]"
    )


def _attention_native(
    scores, context, q, k, v, kv_index, lengths, total: int, scale: float
) -> np.ndarray:
    """The C pair on checked operands; ``total`` is ``lengths.sum()``
    (see :func:`attention_rows`)."""
    rows, heads, d = q.shape
    slots, cap = k.shape[0], k.shape[3]
    x = np.empty(heads * total, dtype=np.float32)
    args = (_addr(kv_index), _addr(lengths))
    if scores(_addr(q), _addr(k), *args, _addr(x), rows, heads, d, slots, cap, scale) < 0:
        raise _bad_rows(kv_index, lengths, slots, cap)
    np.exp(x, out=x)
    out = np.empty((rows, heads * d), dtype=np.float32)
    context(_addr(x), _addr(v), *args, _addr(out), rows, heads, d, slots, cap)
    return out


def _attention_rows_ref(q, k, v, kv_index, lengths, scale) -> np.ndarray:
    """The contract in NumPy, chain for chain.  Rows are padded to the
    longest length: padded keys are zeroed before any arithmetic, score
    ``-inf``, stay out of the buffer ``np.exp`` sees, and add exact zeros
    to the two chains after it (a chain from +0.0 never holds -0.0)."""
    rows, heads, d = q.shape
    slots, cap = k.shape[0], k.shape[3]
    if not (
        (kv_index >= 0).all() and (kv_index < slots).all()
        and (lengths >= 1).all() and (lengths <= cap).all()
    ):
        raise _bad_rows(kv_index, lengths, slots, cap)
    span = int(lengths.max()) if rows else 0
    live = np.arange(span) < lengths[:, None]
    kt = np.where(live[:, None, None], k[kv_index, ..., :span], 0)  # (R, H, d, span)
    vv = np.where(live[:, None, :, None], v[kv_index, :, :span], 0)  # (R, H, span, d)
    s = np.zeros((rows, heads, span), dtype=q.dtype)
    for c in range(d):
        s = s + q[:, :, c, None] * kt[:, :, c]
    s = s * q.dtype.type(scale)
    keep = np.broadcast_to(live[:, None], s.shape)
    s = np.where(keep, s, -np.inf)
    e = np.zeros_like(s)
    e[keep] = np.exp((s - s.max(axis=-1, keepdims=True))[keep])  # packed (row, head, j)
    den = np.zeros((rows, heads, 1), dtype=q.dtype)
    for j in range(span):
        den = den + e[:, :, j : j + 1]
    p = e / den
    ctx = np.zeros((rows, heads, d), dtype=q.dtype)
    for j in range(span):
        ctx = ctx + p[:, :, j, None] * vv[:, :, j]
    return ctx.reshape(rows, heads * d)


def attention_rows(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    kv_index: np.ndarray,
    lengths: np.ndarray,
    scale: float,
) -> np.ndarray:
    """Causal attention for a batch of query rows, each against its own
    slot's first ``lengths[r]`` keys; returns ``(rows, heads * d)``.

    ``q`` is ``(rows, heads, d)``; ``k`` holds keys transposed,
    ``(slots, heads, d, cap)`` (``k[b, h, :, j]`` is key ``j``); ``v`` is
    ``(slots, heads, cap, d)``; row ``r`` reads slot ``kv_index[r]``.  A
    prefill passes all ``(sequence, position)`` rows with
    ``lengths = t + 1``, a decode step its active slots with
    ``lengths = positions + 1``: the same rows through the same code, so
    cached equals uncached and no row depends on its neighbours.

    Per row and head (every chain from +0.0, ascending, each multiply and
    add rounded): ``s_j = chain_k(q[k] * K[j, k]) * scale``;
    ``x_j = s_j - max_j s_j``; ``e = np.exp(x)`` over one contiguous
    buffer; ``p_j = e_j / chain_j(e_j)``; ``ctx = chain_j(p_j * V[j])``.
    Keys at or past ``lengths[r]`` are never read.  Raises ``ValueError``
    unless ``0 <= kv_index < slots`` and ``1 <= lengths <= cap``.
    """
    rows, heads, d = q.shape
    slots, cap = k.shape[0], k.shape[3]
    kv_index = np.ascontiguousarray(kv_index, dtype=_I64)
    lengths = np.ascontiguousarray(lengths, dtype=_I64)
    total = int(lengths.sum())
    fns = _native if _native is not None else _bind()
    if (
        fns
        and q.size
        and q.dtype is _F32
        and k.dtype is _F32
        and v.dtype is _F32
        and k.shape == (slots, heads, d, cap)
        and v.shape == (slots, heads, cap, d)
        and kv_index.shape == lengths.shape == (rows,)
        and q.flags.c_contiguous
        and k.flags.c_contiguous
        and v.flags.c_contiguous
        and rows <= total <= rows * cap  # else some length is out of range
    ):
        out = _attention_native(fns[3], fns[4], q, k, v, kv_index, lengths, total, scale)
        native = True
    else:
        out = _attention_rows_ref(q, k, v, kv_index, lengths, scale)
        native = False
    _count(4 * heads * d * total, native, "attn")
    return out
