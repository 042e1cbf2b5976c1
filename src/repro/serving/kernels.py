"""Bitwise shape-stable inference kernels.

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

The native family is bound lazily on the first eligible call and must
pass a bitwise self-check against einsum before it serves anything; a
missing toolchain, a failed compile or a failed check leaves every entry
point on einsum (``serve_native_fallbacks`` counts those calls).  A
single call also declines to einsum when an operand is not C-contiguous
float32, is empty, or has ``N == 1`` (einsum then reduces over ``k`` with
SIMD partial sums — a different order, kept as is).  NaN *payloads* are
outside the contract: which NaN survives ``NaN + NaN`` depends on
operand order, which a compiler may swap.

Left alone on purpose: :func:`stable_matmul_tb` (tied LM head — einsum's
``ij,kj`` order is a SIMD partial-sum reduction, row-stable but not this
chain) and the attention kernels, whose bits are pinned to ``np.matmul``
at a fixed shape and layout.

Every GEMM through this module adds to the registry counters
``serve_gemm_calls`` / ``serve_gemm_flops`` (and ``serve_native_calls``
when the C kernel ran).

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


def _render_isa(vl: int, nv: int) -> str:
    parts = [
        f"#define VL {vl}  /* lanes of the working vector */",
        f"#define NV {nv}   /* vectors across a register tile */",
        f"typedef f32x{vl} vf;",
        "#if defined(__GNUC__) && !defined(__clang__)",
        f"#define WIDEN(p) {_WIDEN[vl]}",
        "#else",
        f"#define WIDEN(p) __builtin_convertvector(*(const i8x{vl} *)(p), i32x{vl})",
        "#endif",
        "#define LOAD_float(p) (*(const vf *)(p))",
        "#define LOAD_i8(p) __builtin_convertvector(WIDEN(p), vf)",
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
#define MIN(a, b) ((a) < (b) ? (a) : (b))
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

# None = not bound yet; False = unavailable (every call runs on einsum and
# counts as a fallback); else the ``(gemm, grouped, grouped_i8)`` functions.
_native: object = None


def _addr(a: np.ndarray) -> int:
    """Data pointer of a C-contiguous, non-empty array.  The buffer
    export costs a third of ``a.ctypes.data``, which is most of a
    hidden-64 GEMM; only a read-only array needs the slow spelling."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except TypeError:
        return a.ctypes.data


def _count(flops: int, native: bool) -> None:
    counter = _REG.counter
    counter("serve_gemm_calls").value += 1
    counter("serve_gemm_flops").value += flops
    if native:
        counter("serve_native_calls").value += 1
    elif _native is False:
        counter("serve_native_fallbacks").value += 1


def work_summary(flops: int, seconds: float) -> str:
    """One line for a serving report: the process's GEMM calls by rung,
    then ``flops`` (the caller's share of ``serve_gemm_flops``) as a rate
    over the ``seconds`` they were spent in."""
    value = lambda name: _REG.counter(name).value  # noqa: E731
    return (
        f"gemm_calls={value('serve_gemm_calls')}  "
        f"native={value('serve_native_calls')}  "
        f"fallbacks={value('serve_native_fallbacks')}  "
        f"gemm_gflop={flops / 1e9:.3f}  "
        f"achieved={flops / 1e9 / seconds if seconds > 0 else 0.0:.2f} GFLOP/s"
    )


# ----------------------------------------------------------------------
# Binding: compile (or load from the cache), then prove the bits
# ----------------------------------------------------------------------
def _self_check(gemm, grouped, grouped_i8) -> bool:
    """The raw C functions vs einsum, bitwise, on a few shapes that cover
    every path: one streamed row, streamed rows with spares, register
    tiles off a panel walked in two k-chunks with a short last tile and
    streamed edge columns, both epilogues, int8 conversion, skipped
    groups."""
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
    return True


def _bind():
    """Compile/load the C family and self-check it; pins ``_native``."""
    global _native
    lib = toolchain.compile_and_load(C_SOURCE, tag=_TAG)
    if lib is None:
        # The toolchain has logged its one warning (now or earlier).
        _native = False
        return _native
    ptr, i64 = ctypes.c_void_p, ctypes.c_longlong
    lib.repro_serve_gemm.argtypes = [ptr] * 4 + [i64] * 3
    lib.repro_serve_gemm.restype = None
    for fn in (lib.repro_serve_grouped, lib.repro_serve_grouped_i8):
        fn.argtypes = [ptr] * 6 + [i64] * 4
        fn.restype = i64
    _native = (lib.repro_serve_gemm, lib.repro_serve_grouped, lib.repro_serve_grouped_i8)
    if not _self_check(*_native):
        _native = False
        logger.warning(
            "serving GEMM kernels failed their bitwise self-check against "
            "einsum; serving stays on the einsum reference"
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
# Attention rows (bits pinned to np.matmul at a fixed shape and layout)
# ----------------------------------------------------------------------
def attention_row(
    q_hd: np.ndarray, k_hld: np.ndarray, v_hld: np.ndarray, scale: float
) -> np.ndarray:
    """Causal attention for one query row against ``L`` cached positions.

    ``q_hd`` is ``(heads, d)``; ``k_hld``/``v_hld`` are ``(heads, L, d)``.
    Returns the ``(heads, d)`` context.  Every operand is made contiguous
    so the BLAS calls have a fixed layout for a fixed ``L`` — that, plus
    the per-row last-axis softmax, is what makes the result depend only
    on (query row, cached keys) and not on how many other rows are being
    decoded alongside.
    """
    q = np.ascontiguousarray(q_hd)[:, None, :]
    kt = np.ascontiguousarray(np.swapaxes(k_hld, 1, 2))
    s = np.matmul(q, kt)
    s *= scale
    m = s.max(axis=-1, keepdims=True)
    np.subtract(s, m, out=s)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    ctx = np.matmul(s, np.ascontiguousarray(v_hld))
    return ctx[:, 0]


def attention_window(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float
) -> np.ndarray:
    """Causal attention over a full window via per-(b, t) row kernels.

    ``q``/``k``/``v`` are ``(B, heads, S, d)``.  Returns ``(B, S, H)``
    with heads merged.  Deliberately loops over every (sequence, query
    position) pair so position ``t`` issues *exactly* the BLAS calls a
    cached decode step at length ``t`` issues — this is the uncached
    reference the bit-identity guarantee is stated against.  It only
    runs at prefill and in equivalence tests; the hot decode loop is
    :func:`attention_row` against the KV cache.
    """
    B, nh, S, d = q.shape
    H = nh * d
    ctx = np.empty((B, S, H), dtype=q.dtype)
    for b in range(B):
        qb, kb, vb = q[b], k[b], v[b]
        for t in range(S):
            ctx[b, t] = attention_row(qb[:, t], kb[:, : t + 1], vb[:, : t + 1], scale).reshape(H)
    return ctx
