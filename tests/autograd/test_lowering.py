"""Native-code lowering: differential fuzz against the NumPy oracle.

The generated-C path (``repro.autograd.lower``) must be bit-identical
to NumPy replay, so these tests compare each prelude kernel against the
exact ufunc sequence it replaces — float equality, never approx — plus
structural units: the per-record layout descriptors graphs are lowered
from, graph-level attach bit-identity, the content-addressed compile
cache, the ``REPRO_NO_CC`` kill switch, and the build's failure paths.
"""

import glob
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.autograd import CaptureSession, Tensor, arena
from repro.autograd import lower
from repro.autograd.lower import kernels, runtime, toolchain
from repro.observability import registry
from repro.training import Adam
from repro.training.optim import clip_grad_norm


@pytest.fixture(autouse=True)
def _isolated_toolchain(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
    toolchain._reset_for_tests()
    yield
    toolchain._reset_for_tests()


needs_cc = pytest.mark.skipif(
    not lower.cc_available(), reason="no C toolchain in this environment"
)


def _lib():
    lib = toolchain.compile_and_load(kernels.PRELUDE, tag="prelude")
    assert lib is not None
    runtime.bind(lib)
    return lib


def _ptrs(*arrays):
    return [a.ctypes.data for a in arrays]


def _assert_same_adam_state(a, b):
    """Parameters and both moments, bit pattern for bit pattern (zero
    signs, subnormals and infinities included).  NaN only has to meet
    NaN: when two NaNs of different sign collide, which one survives is
    the operand order of the instruction, and a compiler may commute
    ``+`` and ``*`` (the scalar loop before the vectorised one already
    differed from NumPy's there)."""

    def bits(x):
        return np.where(np.isnan(x), np.uint32(0x7FC00000), x.view(np.uint32))

    for x, y in zip(
        [p.data for p in a.params] + a._m + a._v,
        [p.data for p in b.params] + b._m + b._v,
    ):
        np.testing.assert_array_equal(bits(x), bits(y))


# ----------------------------------------------------------------------
# Prelude kernels vs their NumPy ufunc sequences (bitwise).
# ----------------------------------------------------------------------
@needs_cc
class TestKernelFuzz:
    def test_gather_rows(self):
        lib = _lib()
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, h, rows = rng.integers(1, 50), rng.integers(1, 40), rng.integers(1, 30)
            x = rng.standard_normal((rows, h)).astype(np.float32)
            ids = rng.integers(-1, rows, size=n).astype(np.int64)
            out = np.empty((n, h), np.float32)
            lib.repro_gather_rows_f32(*_ptrs(x, ids, out), int(n), int(h))
            ref = np.where((ids >= 0)[:, None], x[np.maximum(ids, 0)], 0.0).astype(
                np.float32
            )
            np.testing.assert_array_equal(out, ref)

    def test_zero_scat_add(self):
        lib = _lib()
        rng = np.random.default_rng(1)
        for _ in range(20):
            n, h, nout = rng.integers(1, 120), rng.integers(1, 24), rng.integers(1, 20)
            rows = rng.standard_normal((n, h)).astype(np.float32)
            idx = rng.integers(-1, nout, size=n).astype(np.int64)
            out = np.empty((nout, h), np.float32)
            scratch = np.empty(int(nout) + 1 + int(n), np.int64)
            lib.repro_zero_scat_add_f32(
                *_ptrs(out, idx, rows), int(n), int(h), int(nout),
                scratch.ctypes.data,
            )
            from repro.autograd.ops_basic import _scatter_add_rows

            ref = np.zeros((nout, h), np.float32)
            keep = idx >= 0
            _scatter_add_rows(ref, idx[keep], rows[keep])
            np.testing.assert_array_equal(out, ref)

    def test_gelu_bwd(self):
        from repro.autograd.ops_fused import _gelu_bwd

        lib = _lib()
        rng = np.random.default_rng(2)
        K = float(3 * 0.044715)
        from repro.autograd.ops_nn import _GELU_C

        for _ in range(20):
            n = int(rng.integers(1, 4000))
            g = rng.standard_normal(n).astype(np.float32)
            a = (rng.standard_normal(n) * 3).astype(np.float32)
            t = np.tanh(a).astype(np.float32)
            out = np.empty(n, np.float32)
            lib.repro_gelu_bwd_f32(
                *_ptrs(g, a, t, out), n, K, float(_GELU_C)
            )
            ref = _gelu_bwd(g, a.copy(), t.copy())
            np.testing.assert_array_equal(out, ref)

    def test_elementwise_matches_numpy_in_every_layout(self):
        """``repro_ew_*_f32`` vs the NumPy ufunc over each admitted layout,
        0-d included, with the values an IEEE operation treats specially
        mixed in.  Bit for bit, except that a NaN only has to meet a NaN
        (see ``_assert_same_adam_state``)."""
        from repro.autograd.lower.kernels.elementwise import _layout

        lib = _lib()
        rng = np.random.default_rng(15)
        specials = np.float32([0.0, -0.0, 1e-40, -1e-42, 3e38, -3e38, np.inf, -np.inf])
        ufuncs = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}

        def draw(shape):
            x = rng.standard_normal(shape)
            hit = rng.random(shape) < 0.3
            return np.where(hit, rng.choice(specials, shape), x).astype(np.float32)

        def bits(x):
            return np.where(np.isnan(x), np.uint32(0x7FC00000), x.view(np.uint32))

        for sa, sb in [
            ((), ()), ((37,), (37,)), ((5, 1), (5, 1)),
            ((6, 9), (6, 1)), ((6, 1), (6, 9)),
            ((3, 4, 5), (1, 4, 5)), ((1, 4, 5), (3, 4, 5)),
        ]:
            a, b = draw(sa), draw(sb)
            shape, rows, w, ra, rb = _layout(a, b)
            with np.errstate(all="ignore"):
                calls = [(name, (a, b), fn(a, b)) for name, fn in ufuncs.items()]
                calls.append(("dropres", (a, b), np.add(b, a)))  # residual + y
            for name, (x, y), ref in calls:
                got = np.empty(shape, np.float32)
                getattr(lib, f"repro_ew_{name}_f32")(*_ptrs(x, y, got), rows, w, ra, rb)
                np.testing.assert_array_equal(bits(got), bits(ref), err_msg=name)

    def test_sum_lead_matches_numpy_for_multirow_heads(self):
        lib = _lib()
        rng = np.random.default_rng(3)
        # h > 1 only: NumPy reduces a 1-wide head pairwise, which the
        # sequential row loop does not replicate (the linbias closure
        # guards on h > 1 for exactly this reason).
        for _ in range(30):
            r, h = int(rng.integers(1, 400)), int(rng.integers(2, 60))
            a = (rng.standard_normal((r, h)) * 10).astype(np.float32)
            out = np.empty(h, np.float32)
            lib.repro_sum_lead_f32(*_ptrs(a, out), r, h)
            np.testing.assert_array_equal(out, a.sum(axis=0))

    def test_adam_multi_matches_numpy_reference(self):
        def build():
            from repro.nn.module import Parameter

            ps = []
            r = np.random.default_rng(7)
            for shape in [(64, 32), (32,), (5, 3, 8), (1,)]:
                p = Parameter(r.standard_normal(shape).astype(np.float32))
                p.grad = r.standard_normal(shape).astype(np.float32)
                ps.append(p)
            return ps

        for wd in (0.0, 0.01):
            ref_opt = Adam(build(), lr=1e-2, weight_decay=wd)
            cc_opt = Adam(build(), lr=1e-2, weight_decay=wd)
            assert lower.attach_adam(cc_opt)
            with arena.steady_state():
                for _ in range(3):
                    ref_opt.step()
                    cc_opt.step()
            _assert_same_adam_state(ref_opt, cc_opt)

    @pytest.mark.parametrize("swap", ["data", "grad", "m", "v"])
    def test_a_swapped_array_rebinds_the_pointer_table(self, swap):
        """The bound table is checked by identity, array by array: a new
        ``p.data``, ``p.grad``, ``m`` or ``v`` object (same values, new
        memory) makes the next step bind it, so the C step updates the
        live arrays and its results stay NumPy's."""

        def build():
            from repro.nn.module import Parameter

            r = np.random.default_rng(9)
            ps = []
            for shape in [(40, 8), (8,), (3, 5)]:
                p = Parameter(r.standard_normal(shape).astype(np.float32))
                p.grad = r.standard_normal(shape).astype(np.float32)
                ps.append(p)
            return Adam(ps, lr=1e-2)

        ref_opt, cc_opt = build(), build()
        assert lower.attach_adam(cc_opt)
        with arena.steady_state():
            for step in range(3):
                if step == 1:
                    for opt in (ref_opt, cc_opt):
                        p = opt.params[1]
                        if swap in ("data", "grad"):
                            setattr(p, swap, getattr(p, swap).copy())
                        else:
                            moments = opt._m if swap == "m" else opt._v
                            moments[1] = moments[1].copy()
                    argv = cc_opt.native.table.args
                ref_opt.step()
                cc_opt.step()
                if step == 1:
                    assert cc_opt.native.table.args is not argv  # bound again
        _assert_same_adam_state(ref_opt, cc_opt)
        # Held in order: the parameters, then each one's data, grad, m, v.
        n = len(cc_opt.params)
        assert cc_opt.params[1].grad is cc_opt.native.table.held[2 * n + 1]

    def test_a_trained_state_builds_its_pointer_table_once(self):
        """Steady leaf gradients are the memory plan's same arrays every
        step — those that reach a parameter through a reshape included
        (the dMoE's flat expert tables) — so once the plan serves (after
        the capture step and the step that records the plan) the table
        is built once and every later step's check hits."""
        from repro.core import dMoE
        from repro.data import LMDataset, PileConfig, SyntheticPile
        from repro.nn import TransformerLM
        from repro.training import Trainer, TrainerConfig

        pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
        train = LMDataset(pile.token_stream(6_000, 32), seq_len=16)
        ffn = lambda i: dMoE(16, 32, num_experts=4, block_size=8, rng=i)  # noqa: E731
        model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, dropout_p=0.0, rng=0)
        config = TrainerConfig(
            global_batch=8, micro_batch=4, max_steps=10**9, eval_every=0,
            log_every=0, backend="cc",
        )
        trainer = Trainer(
            model, train, config=config, optimizer=Adam(model.parameters(), lr=1e-3), rng=9,
        )
        trainer.train_step(0)  # the capture step: eager gradients
        trainer.train_step(1)  # records the plan: gradients moved into it
        tables = []
        for step in range(2, 12):
            trainer.train_step(step)
            tables.append(trainer.optimizer.native.table.args)
        assert all(t is tables[0] for t in tables)

    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_adam_multi_matches_numpy_at_the_vector_edges(self, wd):
        """The vectorised loop against both NumPy formulations where a
        packed body can go wrong: every remainder length, unaligned
        buffers, both unswitched bodies (``wd``), and the values a
        ``sqrt``/``div`` lane treats specially."""
        from repro.nn.module import Parameter

        sizes = list(range(1, 71)) + [
            2**k + d for k in range(7, 17) for d in (-1, 0, 1)
        ]
        specials = np.array(
            [0.0, -0.0, 1e-40, -1e-42, 1e20, -1e20, np.inf, -np.inf, np.nan],
            np.float32,
        )

        def odd_views(fill):
            """One view per size, each starting at an odd element offset
            of one backing array (so no view is vector-aligned)."""
            starts, cursor = [], 0
            for n in sizes:
                starts.append(cursor | 1)
                cursor = starts[-1] + n
            backing = np.empty(cursor, np.float32)
            views = [backing[s : s + n] for s, n in zip(starts, sizes)]
            for v in views:
                v[...] = fill(v.size)
            return views

        def sprinkle(r, x, values):
            # Sparse enough that most lanes of a short tensor stay
            # finite over the run: NaN and inf are absorbing.
            hit = r.random(x.size) < 0.05
            x[hit] = r.choice(values, int(hit.sum()))
            return x

        def build():
            r = np.random.default_rng(13)
            ps = [Parameter(np.zeros(1, np.float32)) for _ in sizes]
            for p, d in zip(ps, odd_views(lambda n: r.standard_normal(n))):
                p.data = d
            for p, g in zip(ps, odd_views(lambda n: 0.0)):
                p.grad = g
            opt = Adam(ps, lr=1e-2, weight_decay=wd)
            # Moments as a resumed run could hold them: signed zeros,
            # subnormals, and a ``v`` one step short of overflowing.
            opt._m = odd_views(
                lambda n: sprinkle(r, r.standard_normal(n), specials[:4])
            )
            opt._v = odd_views(
                lambda n: sprinkle(
                    r, r.standard_normal(n) ** 2, np.float32([0.0, 1e-40, 3.4e38])
                )
            )
            return opt

        # The clip scale rides in as ``grad_scale``: every formulation
        # must land on the bits of scaling the gradients in a pass of
        # their own first (``prescaled``; at 1.0 that is the plain step).
        for scale in (1.0, 0.37, 1e-3):
            names = ("reference", "mirror", "native", "prescaled")
            opts = {name: build() for name in names}
            assert lower.attach_adam(opts["native"])
            assert registry().gauge("optim_bytes_per_step").value == 28 * sum(sizes)
            assert opts["mirror"].native is None
            feed = np.random.default_rng(17)
            for _ in range(20):  # enough steps for bc1/bc2 to move
                for k, n in enumerate(sizes):
                    g = sprinkle(feed, feed.standard_normal(n) * 3, specials)
                    for opt in opts.values():
                        opt.params[k].grad[...] = g
                with np.errstate(all="ignore"):
                    # arena off: the allocating path
                    opts["reference"].step(grad_scale=scale)
                    with arena.steady_state():
                        opts["mirror"].step(grad_scale=scale)
                        opts["native"].step(grad_scale=scale)
                        for p in opts["prescaled"].params:
                            p.grad *= scale
                        opts["prescaled"].step()
                for p, q in zip(opts["native"].params, opts["reference"].params):
                    # ... and the fold leaves p.grad as it found it.
                    np.testing.assert_array_equal(
                        p.grad.view(np.uint32), q.grad.view(np.uint32)
                    )
            for name in names[1:]:
                _assert_same_adam_state(opts["reference"], opts[name])

    def test_clip_grad_norm_native_matches_numpy(self):
        from repro.nn.module import Parameter

        def build():
            r = np.random.default_rng(11)
            ps = []
            for shape in [(700,), (31, 9), (4,)]:
                p = Parameter(r.standard_normal(shape).astype(np.float32))
                p.grad = (r.standard_normal(shape) * 5).astype(np.float32)
                ps.append(p)
            return ps

        ref, cc = build(), build()
        ref_norm = clip_grad_norm(ref, 1.0)  # NumPy, the arena off
        opt = Adam(cc)
        assert lower.attach_adam(opt)
        assert opt.native.sumsq() is not None  # the C ran: no decline
        with arena.steady_state():
            cc_norm = opt.grad_norm()
        assert cc_norm == ref_norm  # float equality: bitwise
        assert Adam(build()).native is None  # bound to ``opt`` alone


# ----------------------------------------------------------------------
# GEMM / MoE-dispatch kernels (this PR) vs their exact eager sequences.
# ----------------------------------------------------------------------
@needs_cc
class TestGemmMoeKernelFuzz:
    """Differential fuzz for the grouped-GEMM and router kernels.

    Every comparison is bitwise (``assert_array_equal`` on float32, or
    uint32 views where NaN payloads matter).  The GEMM kernels route
    through the same OpenBLAS ``sgemm`` NumPy links, so they are gated
    on :func:`blas.available` exactly like the segmenter is.
    """

    def test_softmax_forward_pipeline(self):
        from repro.autograd.ops_nn import _Softmax

        lib = _lib()
        rng = np.random.default_rng(5)
        for it in range(40):
            rows = int(rng.integers(1, 40))
            n = int(rng.integers(2, 200))
            x = (rng.standard_normal((rows, n)) * 4).astype(np.float32)
            # Signed zeros and exact ties: np.maximum returns its second
            # operand on ties, so the row max keeps the *last* equal
            # element — observable only through -0.0 vs +0.0 in x - max.
            if it % 3 == 0:
                x[rng.integers(0, rows)] = rng.choice(
                    [-0.0, 0.0, 1.5], size=n
                ).astype(np.float32)
            if it % 5 == 0:
                r = int(rng.integers(0, rows))
                x[r, : n // 2] = x[r, n // 2 : 2 * (n // 2)][::-1]
            ref = x - x.max(axis=-1, keepdims=True)
            buf = np.empty_like(x)
            lib.repro_softmax_fwd1_f32(*_ptrs(x, buf), rows, n)
            np.testing.assert_array_equal(
                buf.view(np.uint32), ref.view(np.uint32)
            )
            np.exp(ref, out=ref)
            np.divide(ref, ref.sum(axis=-1, keepdims=True), out=ref)
            np.exp(buf, out=buf)
            lib.repro_attn_fwd2_f32(buf.ctypes.data, rows, n)
            np.testing.assert_array_equal(buf, ref)
            # Full eager op for good measure.
            from repro.autograd.function import Context

            ctx = Context()
            np.testing.assert_array_equal(buf, _Softmax.forward(ctx, x))

    def test_softmax_backward_matches_eager_sequence(self):
        lib = _lib()
        rng = np.random.default_rng(6)
        for _ in range(30):
            rows = int(rng.integers(1, 30))
            n = int(rng.integers(2, 120))
            out = rng.random((rows, n)).astype(np.float32)
            g = rng.standard_normal((rows, n)).astype(np.float32)
            ref = np.multiply(g, out)
            dot = ref.sum(axis=-1, keepdims=True)
            ref = np.subtract(g, dot)
            ref = np.multiply(out, ref)
            got = np.empty_like(g)
            lib.repro_softmax_bwd_f32(*_ptrs(g, out, got), rows, n)
            np.testing.assert_array_equal(got, ref)

    def test_topk1_matches_stable_argsort(self):
        lib = _lib()
        rng = np.random.default_rng(7)
        for it in range(40):
            rows = int(rng.integers(1, 50))
            n = int(rng.integers(1, 16))
            s = rng.standard_normal((rows, n)).astype(np.float32)
            if it % 3 == 0:  # ties: stable sort keeps the first max
                s[:, : max(1, n // 2)] = 0.25
            if it % 4 == 0:  # NaNs sort last under -s argsort
                s[rng.integers(0, rows), rng.integers(0, n)] = np.nan
            if it % 7 == 0:
                s[rng.integers(0, rows)] = np.nan  # all-NaN row -> idx 0
            ref = (-s).argsort(axis=-1, kind="stable")[..., :1]
            got = np.empty((rows, 1), np.int64)
            lib.repro_topk1_i64(*_ptrs(s, got), rows, n)
            np.testing.assert_array_equal(got, ref)

    def test_lbfrac_matches_bincount_sequence(self):
        lib = _lib()
        rng = np.random.default_rng(8)
        for nt, E in [(0, 4), (1, 1), (17, 4), (256, 8), (1000, 3)]:
            idx = rng.integers(0, E, size=nt).astype(np.int64)
            ref = (
                np.bincount(idx, minlength=E).astype(np.float64)
                / max(idx.size, 1)
            ).astype(np.float32)
            got = np.empty(E, np.float32)
            counts = np.empty(E, np.int64)
            lib.repro_lbfrac_f32(*_ptrs(idx, got), nt, E, counts.ctypes.data)
            np.testing.assert_array_equal(got, ref)

    def test_allfinite(self):
        lib = _lib()
        rng = np.random.default_rng(9)
        for bad in (None, np.nan, np.inf, -np.inf):
            x = rng.standard_normal(777).astype(np.float32)
            if bad is not None:
                x[int(rng.integers(0, x.size))] = bad
            ref = bool(np.isfinite(x).all())
            assert bool(lib.repro_allfinite_f32(x.ctypes.data, x.size)) == ref

    @staticmethod
    def _random_topology(rng, bs):
        from repro.sparse import Topology

        ne = int(rng.integers(1, 6))
        rows = rng.integers(0, 5, size=ne)  # empty experts allowed
        cols = rng.integers(1, 4, size=ne)
        if rows.sum() == 0:
            rows[0] = 1
        return Topology.block_diagonal(rows, cols, bs)

    def test_grouped_kernels_all_transpose_variants(self):
        """repro_grouped_{sdd,dsd,dds}_f32 vs the eager grouped
        executors over ragged block-diagonal topologies — every
        (trans_a/trans_b/trans_s) variant the backward swaps emit."""
        from repro.sparse import dispatch

        lib = _lib()
        rng = np.random.default_rng(10)
        tried = 0
        for it in range(60):
            bs = int(rng.choice([2, 3, 4, 8]))
            topo = self._random_topology(rng, bs)
            plan = dispatch.analyze(topo)
            if plan is None:
                continue
            tried += 1
            gt = dispatch.group_table(topo)
            lt = dispatch.live_layout(topo).table
            G = gt.shape[0]
            M, N = topo.shape
            k = int(rng.integers(2, 10))
            n = int(rng.integers(2, 10))
            mo = int(rng.integers(2, 10))
            nnz = topo.nnz_blocks
            vals = rng.standard_normal((nnz, bs, bs)).astype(np.float32)
            stage = np.empty(plan.max_group_blocks * bs * bs, np.float32)
            f4 = np.dtype(np.float32)

            for at in (0, 1):
                for bt in (0, 1):
                    a = rng.standard_normal(
                        (k, M) if at else (M, k)
                    ).astype(np.float32)
                    b = rng.standard_normal(
                        (N, k) if bt else (k, N)
                    ).astype(np.float32)
                    ref = dispatch.grouped_sdd(
                        a.T if at else a, b.T if bt else b, topo, plan, f4
                    )
                    got = np.empty((nnz, bs, bs), np.float32)
                    lib.repro_grouped_sdd_f32(
                        a.ctypes.data, a.shape[1], at,
                        b.ctypes.data, b.shape[1], bt,
                        got.ctypes.data, gt.ctypes.data, lt.ctypes.data,
                        G, k, bs, stage.ctypes.data,
                    )
                    np.testing.assert_array_equal(got, ref)

            for st in (0, 1):
                for bt in (0, 1):
                    kdim = M if st else N
                    b = rng.standard_normal(
                        (n, kdim) if bt else (kdim, n)
                    ).astype(np.float32)
                    ref = dispatch.grouped_dsd(
                        vals, b.T if bt else b, topo, plan, bool(st), f4
                    )
                    m_eff = N if st else M
                    got = np.zeros((m_eff, n), np.float32)
                    lib.repro_grouped_dsd_f32(
                        vals.ctypes.data, b.ctypes.data, b.shape[1], bt,
                        got.ctypes.data, n, gt.ctypes.data, lt.ctypes.data,
                        G, st, bs, stage.ctypes.data,
                    )
                    np.testing.assert_array_equal(got, ref)

            for at in (0, 1):
                for st in (0, 1):
                    kdim = N if st else M
                    a = rng.standard_normal(
                        (kdim, mo) if at else (mo, kdim)
                    ).astype(np.float32)
                    ref = dispatch.grouped_dds(
                        a.T if at else a, vals, topo, plan, bool(st), f4
                    )
                    n_eff = M if st else N
                    got = np.zeros((mo, n_eff), np.float32)
                    lib.repro_grouped_dds_f32(
                        a.ctypes.data, a.shape[1], at, vals.ctypes.data,
                        got.ctypes.data, mo, n_eff, gt.ctypes.data,
                        lt.ctypes.data, G, st, bs, stage.ctypes.data,
                    )
                    np.testing.assert_array_equal(got, ref)
        assert tried >= 30  # the fuzz actually exercised grouped plans

    def test_grouped_sdd_wobble_across_calls(self):
        """One bound kernel serves topologies of different shapes
        back-to-back — the live-row re-read that replaces guard
        fallbacks when tokens-per-expert wobbles between replays."""
        from repro.sparse import Topology, dispatch

        lib = _lib()
        rng = np.random.default_rng(12)
        bs, k = 4, 8
        for rows_per_e in ([2, 3, 1], [4, 1, 2], [1, 1, 1], [3, 0, 5]):
            topo = Topology.block_diagonal(
                np.asarray(rows_per_e), np.full(3, 2), bs
            )
            plan = dispatch.analyze(topo)
            gt = dispatch.group_table(topo)
            lt = dispatch.live_layout(topo).table
            M, N = topo.shape
            x = rng.standard_normal((M, k)).astype(np.float32)
            w = rng.standard_normal((k, N)).astype(np.float32)
            ref = dispatch.grouped_sdd(x, w, topo, plan, np.dtype(np.float32))
            got = np.empty((topo.nnz_blocks, bs, bs), np.float32)
            stage = np.empty(plan.max_group_blocks * bs * bs, np.float32)
            lib.repro_grouped_sdd_f32(
                x.ctypes.data, k, 0, w.ctypes.data, N, 0, got.ctypes.data,
                gt.ctypes.data, lt.ctypes.data, gt.shape[0], k, bs,
                stage.ctypes.data,
            )
            np.testing.assert_array_equal(got, ref)

    def test_linbias_and_mm_match_numpy(self):
        from repro.autograd.lower import blas

        if not blas.available():
            pytest.skip("no cblas_sgemm symbol in this NumPy build")
        lib = _lib()
        rng = np.random.default_rng(13)
        for _ in range(40):
            m = int(rng.integers(2, 30))
            k = int(rng.integers(2, 30))
            n = int(rng.integers(2, 30))
            batch = int(rng.choice([1, 1, int(rng.integers(2, 5))]))
            lead = (m, k) if batch == 1 else (batch, m, k)
            x = rng.standard_normal(lead).astype(np.float32)
            for trans in (0, 1):
                # trans=1 stores w row-major (n, k) and the kernel
                # multiplies by its transpose — the F-contiguous view
                # eager sees for tied / reshaped weights.
                wst = rng.standard_normal(
                    (n, k) if trans else (k, n)
                ).astype(np.float32)
                w = wst.T if trans else wst
                b = rng.standard_normal(n).astype(np.float32)
                ref = np.matmul(x, w)
                ref = np.add(ref, b, out=ref)
                got = np.empty(ref.shape, np.float32)
                lib.repro_linbias_f32(
                    *_ptrs(x, wst, b, got), batch, m, k, n, trans,
                    wst.shape[1],
                )
                np.testing.assert_array_equal(got, ref)
                ref2 = np.matmul(x, w)
                got2 = np.empty(ref2.shape, np.float32)
                lib.repro_mm_f32(
                    *_ptrs(x, wst, got2), batch, m, k, n, trans,
                    wst.shape[1],
                )
                np.testing.assert_array_equal(got2, ref2)

    def test_segsum_tr_matches_reduceat_tail(self):
        """The transpose-segment bias reduction vs the exact eager
        sequence (gather by transpose offsets + pairwise reduceat)."""
        from repro.autograd.lower.kernels.gelu import tr_segments as _tr_segments
        from repro.sparse.ops import segment_meta

        lib = _lib()
        rng = np.random.default_rng(14)
        for _ in range(40):
            bs = int(rng.choice([2, 4, 8]))
            topo = self._random_topology(rng, bs)
            nnz = topo.nnz_blocks
            colsum = rng.standard_normal((nnz, bs)).astype(np.float32)
            nonempty, starts = segment_meta(topo, transpose=True)
            n_cols_b = topo.shape[1] // bs
            ref = np.zeros((n_cols_b, bs), np.float32)
            if len(nonempty):
                ref[nonempty] = np.add.reduceat(
                    colsum[topo.transpose_block_offsets], starts, axis=0
                )
            got = np.zeros((n_cols_b, bs), np.float32)
            if len(nonempty):
                tbo, nerow, st = _tr_segments(topo, nonempty, starts)
                lib.repro_segsum_tr_f32(
                    *_ptrs(colsum, tbo, nerow, st, got), len(nerow), bs
                )
            np.testing.assert_array_equal(got, ref)


# ----------------------------------------------------------------------
# Structural units.
# ----------------------------------------------------------------------
def _capture_tiny():
    """A minimal captured graph: sum(x*w)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 8)).astype(np.float32), requires_grad=True)
    sess = CaptureSession(("tiny",), {"inp": x.data}).begin()
    try:
        loss = (x * w).sum()
        loss.backward(retain_graph=True)
    except BaseException:
        sess.abort()
        raise
    return sess.finalize(loss, loss)


class TestDescriptors:
    def test_records_carry_layout_descriptors(self):
        graph = _capture_tiny()
        assert graph.num_records > 0
        saw_array_desc = False
        for rec in graph.records:
            if not hasattr(rec, "descs") or rec.descs is None:
                continue
            out_desc, arg_descs = rec.descs
            for d in (out_desc, *arg_descs):
                if d is None:
                    continue  # non-ndarray position
                dtype, shape, strides = d
                assert isinstance(dtype, str)
                assert isinstance(shape, tuple)
                assert isinstance(strides, tuple)
                assert len(shape) == len(strides)
                saw_array_desc = True
        assert saw_array_desc


@needs_cc
class TestGraphAttach:
    def test_attach_is_bit_identical_to_replay(self):
        from tests.integration.test_step_graph import _trainer

        plain = _trainer("replay", steady=True)
        lowered = _trainer("replay", steady=True)
        l0 = [plain.train_step(0), lowered.train_step(0)]
        assert l0[0] == l0[1]
        plan = lower.attach(lowered.step_graph)
        assert plan is not None
        assert plan.records_lowered > 0
        assert 0.0 < plan.coverage <= 1.0
        for s in range(1, 4):
            assert plain.train_step(s) == lowered.train_step(s)
        for a, b in zip(plain.optimizer.params, lowered.optimizer.params):
            np.testing.assert_array_equal(a.data, b.data)

    def test_compile_cache_hits_on_identical_source(self):
        reg = registry()
        lib1 = toolchain.compile_and_load(kernels.PRELUDE, tag="prelude")
        assert lib1 is not None
        before = reg.counter("lower_cache_hits").value
        # Same process: served from the in-memory table.
        assert toolchain.compile_and_load(kernels.PRELUDE, tag="prelude") is lib1
        assert reg.counter("lower_cache_hits").value == before + 1
        # "New process": drop the in-memory table, keep the disk cache.
        toolchain._reset_for_tests()
        lib2 = toolchain.compile_and_load(kernels.PRELUDE, tag="prelude")
        assert lib2 is not None
        assert reg.counter("lower_cache_hits").value == before + 2

    def test_compile_cache_key_includes_host_isa(self, monkeypatch):
        """``-march=native`` artifacts are only served to the CPU kind
        that built them: another host sharing the cache directory gets
        its own artifact, not a SIGILL."""
        reg = registry()
        source = "int repro_probe(void) { return 7; }\n"

        def load_as(isa):
            monkeypatch.setattr(toolchain, "_host_isa", lambda: isa)
            toolchain._reset_for_tests()  # a new process on that host
            hits = reg.counter("lower_cache_hits").value
            ms = reg.counter("lower_compile_ms").value
            lib = toolchain.compile_and_load((source,), tag="probe")
            assert lib is not None and lib.repro_probe() == 7
            paths = set(glob.glob(os.path.join(toolchain.cache_dir(), "probe-*.so")))
            return (
                paths,
                reg.counter("lower_cache_hits").value - hits,
                reg.counter("lower_compile_ms").value > ms,
            )

        big, hits, compiled = load_as("x86_64 fpu sse2 avx2 avx512f")
        assert len(big) == 1 and hits == 0 and compiled
        both, hits, compiled = load_as("x86_64 fpu sse2")
        assert len(both) == 2 and big < both and hits == 0 and compiled
        again, hits, compiled = load_as("x86_64 fpu sse2 avx2 avx512f")
        assert again == both and hits == 1 and not compiled

    def test_host_isa_is_read_without_a_subprocess(self, monkeypatch):
        if not os.path.exists("/proc/cpuinfo"):
            pytest.skip("platform.processor() may shell out to uname here")

        def no_spawn(*a, **k):
            raise AssertionError("the ISA fingerprint spawned a process")

        monkeypatch.setattr(subprocess, "run", no_spawn)
        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        isa = toolchain._host_isa()
        assert isa.split()[0] and isa == toolchain._host_isa()


def test_cflags_hold_no_value_changing_flag():
    """``-fno-math-errno`` is the one member of ``-ffast-math`` in the
    flag set because it is the one that changes no value; contraction
    stays off and everything that reassociates, approximates or assumes
    away zeros, NaNs and infinities stays out."""
    assert "-ffp-contract=off" in toolchain.CFLAGS
    for flag in (
        "-ffast-math",
        "-Ofast",
        "-funsafe-math-optimizations",
        "-fassociative-math",
        "-freciprocal-math",
        "-ffinite-math-only",
        "-fno-signed-zeros",
        "-fno-trapping-math",
    ):
        assert flag not in toolchain.CFLAGS


class TestNoToolchain:
    def test_repro_no_cc_declines_without_compiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        toolchain._reset_for_tests()
        assert not lower.cc_available()
        assert toolchain.compile_and_load(kernels.PRELUDE, tag="prelude") is None
        graph = _capture_tiny()
        reg = registry()
        before = reg.counter("lower_toolchain_fallbacks").value
        assert lower.attach(graph) is None
        assert graph._lowered is None
        assert reg.counter("lower_toolchain_fallbacks").value == before + 1


# ----------------------------------------------------------------------
# The build's failure paths: each warns once and lands on replay.
# ----------------------------------------------------------------------
def _leftovers():
    """Every path under the cache directory, relative to it."""
    d = toolchain.cache_dir()
    return sorted(
        os.path.relpath(os.path.join(root, name), d)
        for root, dirs, files in os.walk(d)
        for name in dirs + files
    )


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


def _assert_declines_to_replay():
    """The next ``attach`` declines and counts a toolchain fallback."""
    reg = registry()
    before = reg.counter("lower_toolchain_fallbacks").value
    assert lower.attach(_capture_tiny()) is None
    assert reg.counter("lower_toolchain_fallbacks").value == before + 1


def _assert_runs(lib):
    """A kernel of each unit computes its reference's bits: ``gather``
    called by hand, and serving's GEMM through its bind check."""
    from repro.autograd.lower.kernels import serve

    x = np.arange(12, dtype=np.float32).reshape(4, 3)
    ids = np.array([2, -1, 0], np.int64)
    out = np.empty((3, 3), np.float32)
    lib.repro_gather_rows_f32(*_ptrs(x, ids, out), 3, 3)
    np.testing.assert_array_equal(out, [x[2], np.zeros(3), x[0]])
    runtime._direct.clear()
    try:
        calls = registry().counter("lower_direct_calls").value
        entry = serve.KERNELS[0]
        runtime.direct(entry)(*entry.fuzz(np.random.default_rng(0)))
        assert registry().counter("lower_direct_calls").value == calls + 1
    finally:
        runtime._direct.clear()


def _cold_load_after(barrier):
    """A forked process's first prelude load, started on ``barrier``."""
    toolchain._reset_for_tests()
    barrier.wait()
    lib = runtime.load_prelude()
    assert lib is not None
    _assert_runs(lib)


@needs_cc
class TestBuildFailures:
    def test_one_failing_unit_leaves_nothing_and_lands_on_replay(
        self, monkeypatch, caplog
    ):
        from tests.integration.test_step_graph import (
            _assert_same, _fingerprint, _trainer,
        )

        units = kernels.PRELUDE
        monkeypatch.setattr(
            kernels, "PRELUDE", units[:-1] + (units[-1] + "\n#error broken\n",)
        )
        replay = _trainer("replay", steady=True)
        ref = _fingerprint(replay, replay.train())
        with caplog.at_level(logging.WARNING):
            lowered = _trainer("cc", steady=True)
            got = _fingerprint(lowered, lowered.train())
        _assert_same(ref, got)
        assert lowered.step_graph._lowered is None
        (warning,) = _warnings(caplog)
        assert f"unit {len(units) - 1}" in warning and "#error" in warning
        assert _leftovers() == []  # no .so, and no unit's .c or .o
        _assert_declines_to_replay()

    def test_truncated_library_is_rebuilt(self):
        # Built by another process: this one must not have it mapped.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        subprocess.run(
            [sys.executable, "-c",
             "from repro.autograd.lower import runtime; "
             "assert runtime.load_prelude() is not None"],
            env=env, check=True, timeout=300,
        )
        (so,) = glob.glob(os.path.join(toolchain.cache_dir(), "prelude-*.so"))
        with open(so, "r+b") as f:
            f.truncate(os.path.getsize(so) // 2)
        reg = registry()
        hits = reg.counter("lower_cache_hits").value
        ms = reg.counter("lower_compile_ms").value
        built = reg.histogram("lower_unit_cc_ms").count
        lib = runtime.load_prelude()
        assert lib is not None
        assert reg.counter("lower_cache_hits").value == hits
        assert reg.counter("lower_compile_ms").value > ms
        assert reg.histogram("lower_unit_cc_ms").count == built + len(kernels.PRELUDE)
        assert _leftovers() == [os.path.basename(so)]
        _assert_runs(lib)

    def test_unwritable_cache_dir_lands_on_replay(self, tmp_path, monkeypatch, caplog):
        in_the_way = tmp_path / "a-file"
        in_the_way.write_text("")
        monkeypatch.setenv("REPRO_LOWER_CACHE", str(in_the_way / "lower"))
        with caplog.at_level(logging.WARNING):
            assert runtime.load_prelude() is None
            _assert_declines_to_replay()
        (warning,) = _warnings(caplog)
        assert "compile cache unusable" in warning

    def test_two_processes_cold_build_one_key_at_once(self):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_cold_load_after, args=(barrier,)) for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(300)
        assert [p.exitcode for p in procs] == [0, 0]
        (so,) = _leftovers()
        assert so.startswith("prelude-") and so.endswith(".so")

    def test_a_hung_cc_is_killed_and_reaped(self, tmp_path, monkeypatch, caplog):
        fake = tmp_path / "cc"
        fake.write_text(
            "#!/bin/sh\n"
            'if [ "$1" = --version ]; then echo "fake cc 1.0"; exit 0; fi\n'
            "exec sleep 60\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        monkeypatch.setattr(toolchain, "BUILD_TIMEOUT_S", 0.5)
        toolchain._reset_for_tests()
        popen, jobs = subprocess.Popen, []

        def spawn(cmd, *args, **kwargs):
            proc = popen(cmd, *args, **kwargs)
            jobs.append(proc)
            return proc

        monkeypatch.setattr(subprocess, "Popen", spawn)
        t0 = time.monotonic()
        with caplog.at_level(logging.WARNING):
            assert runtime.load_prelude() is None
        assert time.monotonic() - t0 < 30
        units = [p for p in jobs if "-c" in p.args]
        assert len(units) == min(len(kernels.PRELUDE), toolchain._jobs())
        for proc in units:  # killed, and reaped: no child is left
            assert proc.returncode == -signal.SIGKILL
            with pytest.raises(ProcessLookupError):
                os.kill(proc.pid, 0)
        (warning,) = _warnings(caplog)
        assert "timed out" in warning
        assert _leftovers() == []
        _assert_declines_to_replay()
