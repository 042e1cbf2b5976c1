"""Structural-zero rows: conformance of the trimmed grouped kernels.

A topology that knows the live rows of its groups (``Topology.live_rows``)
must make every grouped SDD/DSD/DDS variant and the sparse bias/GELU ops

- agree with the dense reference on the live rows (existing tolerances),
- never *read* a pad row into a live result (inputs carry NaN there),
- store exact ``+0.0`` into the pad rows of every output, even when the
  output buffer starts out as NaN,
- produce the same bits from the NumPy executors and the generated-C
  kernels (same sgemm arguments per group, the one-row rule included),

while a topology without live rows runs exactly the padded per-group
GEMMs it always ran.  The space is generated: block-diagonal topologies
x live-row vectors (0, 1, a block multiple, ``bs - 1`` short of one,
ragged) x all transpose variants x block sizes {2, 16, 128}.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, arena, gelu, lower
from repro.autograd.function import Context
from repro.autograd.lower import blas, kernels, runtime, toolchain
from repro.autograd.lower.kernels.base import Build, Rel
from repro.core import make_topology
from repro.moe.permute import make_padded_plan
from repro.sparse import (
    BlockSparseMatrix,
    Topology,
    add_bias_columns,
    banded_causal_topology,
    dds,
    dispatch,
    dispatch_mode,
    dsd,
    sdd,
    sparse_bias_add,
    stats,
)
from repro.sparse.autograd_ops import _DsdMM, _SddMM, sparse_bias_gelu
from repro.sparse.ops import segment_meta
from repro.sparse.reference import (
    dds_reference,
    dsd_reference,
    element_mask,
    sdd_reference,
)

F4 = np.dtype(np.float32)
FLAGS = [(False, False), (False, True), (True, False), (True, True)]


@st.composite
def live_cases(draw):
    """``(topology with live rows, live-row mask over its rows, seed)``."""
    bs = draw(st.sampled_from([2, 16, 128]))
    rows, cols, live = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(0, 2 if bs == 128 else 3))
        rows.append(r)
        cols.append(draw(st.integers(1, 2)))
        if r == 0:
            continue  # an empty expert: no blocks, no group, no count
        kind = draw(st.sampled_from(["zero", "one", "multiple", "short", "ragged"]))
        live.append(
            {
                "zero": 0,
                "one": 1,
                "multiple": draw(st.integers(1, r)) * bs,
                "short": r * bs - (bs - 1),
                "ragged": draw(st.integers(1, r * bs)),
            }[kind]
        )
    if not live:
        rows[0], live = 1, [draw(st.sampled_from([0, 1, bs - 1, bs]))]
    topo = dispatch.with_live_rows(
        Topology.block_diagonal(np.array(rows), np.array(cols), bs), live
    )
    mask = np.concatenate(
        [np.arange(r * bs) < lv for r, lv in zip([r for r in rows if r], live)]
    )
    return topo, mask, draw(st.integers(0, 2**31 - 1))


def _poisoned(x, pad, axis):
    """Two copies of ``x``: pad rows zeroed (what the reference sees) and
    pad rows NaN (what the kernel gets: it must not read them)."""
    ref, got = x.copy(), x.copy()
    index = [slice(None)] * x.ndim
    index[axis] = pad
    ref[tuple(index)] = 0
    got[tuple(index)] = np.nan
    return ref, got


def _values_pair(topo, pad, rng, dtype):
    dense = rng.standard_normal(topo.shape).astype(dtype)
    ref, got = _poisoned(dense, pad, 0)
    return BlockSparseMatrix.from_dense(ref, topo), BlockSparseMatrix.from_dense(got, topo)


def _assert_pad_is_plus_zero(out, pad, axis):
    picked = np.compress(pad, out, axis=axis)
    assert not picked.any() and not np.signbit(picked).any()


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def nan_buffers():
    """Every uninitialized kernel buffer starts out as NaN."""
    return mock.patch.object(
        arena, "empty",
        lambda shape, dtype, rows=None: np.full(shape, np.nan, dtype=dtype),
    )


# ----------------------------------------------------------------------
# NumPy executors vs the dense reference
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None, derandomize=True)
@given(live_cases())
def test_grouped_products_match_dense_on_live_rows(case):
    topo, live, seed = case
    rng = np.random.default_rng(seed)
    pad = ~live
    m, n = topo.shape
    with dispatch_mode("grouped"), nan_buffers():
        for ta, tb in FLAGS:
            a_ref, a = _poisoned(rng.standard_normal((m, 5)), pad, 0)
            b = rng.standard_normal((5, n))
            a_ref, a = (a_ref.T.copy(), a.T.copy()) if ta else (a_ref, a)
            b = b.T.copy() if tb else b
            got = sdd(a, b, topo, trans_a=ta, trans_b=tb).to_dense()
            want = sdd_reference(a_ref, b, topo, trans_a=ta, trans_b=tb).to_dense()
            np.testing.assert_allclose(got, want, atol=1e-10)
            _assert_pad_is_plus_zero(got, pad, 0)

        for ts, tb in FLAGS:
            s_ref, s = _values_pair(topo, pad, rng, np.float64)
            if ts:  # DS^TD contracts over the rows: B's pad rows are unread
                b_ref, b = _poisoned(rng.standard_normal((m, 6)), pad, 0)
            else:
                b_ref = b = rng.standard_normal((n, 6))
            b_ref, b = (b_ref.T.copy(), b.T.copy()) if tb else (b_ref, b)
            got = dsd(s, b, trans_s=ts, trans_b=tb)
            want = dsd_reference(s_ref, b_ref, trans_s=ts, trans_b=tb)
            np.testing.assert_allclose(got, want, atol=1e-10)
            if not ts:
                _assert_pad_is_plus_zero(got, pad, 0)

        for ta, ts in FLAGS:
            s_ref, s = _values_pair(topo, pad, rng, np.float64)
            if ts:
                a_ref = a = rng.standard_normal((7, n))
            else:  # DDS contracts over the rows: A's pad columns are unread
                a_ref, a = _poisoned(rng.standard_normal((7, m)), pad, 1)
            a_ref, a = (a_ref.T.copy(), a.T.copy()) if ta else (a_ref, a)
            got = dds(a, s, trans_a=ta, trans_s=ts)
            want = dds_reference(a_ref, s_ref, trans_a=ta, trans_s=ts)
            np.testing.assert_allclose(got, want, atol=1e-10)
            if ts:
                _assert_pad_is_plus_zero(got, pad, 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(live_cases())
def test_blocked_mode_agrees_on_live_rows(case):
    """``dispatch_mode("blocked")`` runs the padded per-block kernels on
    the same topology; with structural zeros in the pad rows of the
    inputs both paths compute the same products."""
    topo, live, seed = case
    rng = np.random.default_rng(seed)
    pad = ~live
    m, n = topo.shape
    a = _poisoned(rng.standard_normal((m, 5)), pad, 0)[0]
    b = rng.standard_normal((5, n))
    s = _values_pair(topo, pad, rng, np.float64)[0]
    d_m = _poisoned(rng.standard_normal((m, 4)), pad, 0)[0]
    d_n = rng.standard_normal((n, 4))
    results = {}
    for mode in ("grouped", "blocked"):
        with dispatch_mode(mode):
            results[mode] = [
                sdd(a, b, topo).values,
                dsd(s, d_n),
                dsd(s, d_m, trans_s=True),
                dds(d_n.T, s, trans_s=True),
                dds(d_m.T, s),
            ]
    for got, want in zip(results["grouped"], results["blocked"]):
        np.testing.assert_allclose(got, want, atol=1e-10)


# ----------------------------------------------------------------------
# Sparse bias / GELU ops
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None, derandomize=True)
@given(live_cases())
def test_bias_gelu_ops_loop_over_live_rows(case):
    with nan_buffers():
        _check_bias_gelu_ops(*case)


def _check_bias_gelu_ops(topo, live, seed):
    rng = np.random.default_rng(seed)
    pad = ~live
    bare = dataclasses.replace(topo, live_rows=None)
    ref_s, got_s = _values_pair(topo, pad, rng, np.float32)
    bias = rng.standard_normal(topo.shape[1]).astype(np.float32)
    grad_ref, grad = _values_pair(topo, pad, rng, np.float32)

    # The padded computation of the same ops, pad rows included.
    vr, br = Tensor(ref_s.values, requires_grad=True), Tensor(bias, requires_grad=True)
    want = gelu(sparse_bias_add(vr, br, bare))
    want.backward(grad_ref.values)

    bias_grads = []
    for fused in (False, True):
        v, b = Tensor(got_s.values, requires_grad=True), Tensor(bias, requires_grad=True)
        out = (
            sparse_bias_gelu(v, b, topo)
            if fused
            else gelu(sparse_bias_add(v, b, topo))
        )
        out.backward(grad.values if fused else grad_ref.values)
        dense = BlockSparseMatrix(topo, out.data).to_dense()
        # Elementwise math does not depend on position: live rows are
        # bit-equal to the padded computation.
        _assert_same_bits(dense[live], BlockSparseMatrix(topo, want.data).to_dense()[live])
        _assert_pad_is_plus_zero(dense, pad, 0)
        gv = BlockSparseMatrix(topo, v.grad).to_dense()
        _assert_same_bits(gv[live], BlockSparseMatrix(topo, vr.grad).to_dense()[live])
        _assert_pad_is_plus_zero(gv, pad, 0)
        # Column sums run over fewer rows, so only close to the padded ones.
        np.testing.assert_allclose(b.grad, br.grad, rtol=1e-4, atol=1e-4)
        bias_grads.append(b.grad)
    _assert_same_bits(*bias_grads)  # fused = unfused, bit for bit

    eager = add_bias_columns(got_s, bias).to_dense()
    padded = np.where(element_mask(topo), ref_s.to_dense() + bias, 0)
    _assert_same_bits(eager[live], padded[live])
    _assert_pad_is_plus_zero(eager, pad, 0)


# ----------------------------------------------------------------------
# NumPy executors = generated-C kernels, bit for bit
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lib(tmp_path_factory):
    if not (lower.cc_available() and blas.available()):
        pytest.skip("no C toolchain / BLAS symbol in this environment")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_LOWER_CACHE", str(tmp_path_factory.mktemp("lower-cache")))
    toolchain._reset_for_tests()
    try:
        compiled = toolchain.compile_and_load(kernels.PRELUDE, tag="prelude")
        assert compiled is not None
        runtime.bind(compiled)
        yield compiled
    finally:
        mp.undo()
        toolchain._reset_for_tests()


def _nan(shape):
    return np.full(shape, np.nan, np.float32)


def _nan_where_written(shape, topo, axis, by_columns):
    """An output buffer as the runners hand it to a kernel: NaN (i.e.
    ``arena.empty``) wherever a group writes, zero where none does (the
    runners ``arena.zeros`` an output its groups do not cover)."""
    out = np.zeros(shape, np.float32)
    index = [slice(None)] * 2
    for rlo, rhi, clo, chi, *_ in dispatch.analyze(topo).element_groups(topo.block_size):
        index[axis] = slice(clo, chi) if by_columns else slice(rlo, rhi)
        out[tuple(index)] = np.nan
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(live_cases())
def test_native_grouped_kernels_equal_numpy_executors(lib, case):
    topo, live, seed = case
    rng = np.random.default_rng(seed)
    pad = ~live
    bs = topo.block_size
    plan = dispatch.analyze(topo)
    gt = dispatch.group_table(topo)
    lt = dispatch.live_layout(topo).table
    G = gt.shape[0]
    m, n = topo.shape
    nnz = topo.nnz_blocks
    k, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    stage = _nan(plan.max_group_blocks * bs * bs)
    vals = _values_pair(topo, pad, rng, np.float32)[1].values

    for at, bt in FLAGS:
        a = _poisoned(rng.standard_normal((m, k)).astype(np.float32), pad, 0)[1]
        b = rng.standard_normal((k, n)).astype(np.float32)
        a = a.T.copy() if at else a
        b = b.T.copy() if bt else b
        want = dispatch.grouped_sdd(a.T if at else a, b.T if bt else b, topo, plan, F4)
        got = _nan((nnz, bs, bs))
        lib.repro_grouped_sdd_f32(
            a.ctypes.data, a.shape[1], at, b.ctypes.data, b.shape[1], bt,
            got.ctypes.data, gt.ctypes.data, lt.ctypes.data, G, k, bs,
            stage.ctypes.data,
        )
        _assert_same_bits(got, want)

    for st_, bt in FLAGS:
        b = rng.standard_normal((m if st_ else n, w)).astype(np.float32)
        if st_:
            b = _poisoned(b, pad, 0)[1]
        b = b.T.copy() if bt else b
        want = dispatch.grouped_dsd(vals, b.T if bt else b, topo, plan, st_, F4)
        got = _nan_where_written(want.shape, topo, 0, by_columns=st_)
        lib.repro_grouped_dsd_f32(
            vals.ctypes.data, b.ctypes.data, b.shape[1], bt, got.ctypes.data,
            w, gt.ctypes.data, lt.ctypes.data, G, st_, bs, stage.ctypes.data,
        )
        _assert_same_bits(got, want)

    for at, st_ in FLAGS:
        a = rng.standard_normal((w, n if st_ else m)).astype(np.float32)
        if not st_:
            a = _poisoned(a, pad, 1)[1]
        a = a.T.copy() if at else a
        want = dispatch.grouped_dds(a.T if at else a, vals, topo, plan, st_, F4)
        got = _nan_where_written(want.shape, topo, 1, by_columns=not st_)
        lib.repro_grouped_dds_f32(
            a.ctypes.data, a.shape[1], at, vals.ctypes.data, got.ctypes.data,
            w, want.shape[1], gt.ctypes.data, lt.ctypes.data, G, st_, bs,
            stage.ctypes.data,
        )
        _assert_same_bits(got, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(live_cases())
def test_native_bias_gelu_kernels_equal_numpy_ops(lib, case):
    from repro.autograd.ops_fused import _GELU_C
    from repro.sparse.autograd_ops import _SparseBiasGelu
    from repro.autograd.function import Context

    topo, live, seed = case
    rng = np.random.default_rng(seed)
    bs = topo.block_size
    nnz = topo.nnz_blocks
    values = _values_pair(topo, ~live, rng, np.float32)[1].values
    bias = rng.standard_normal(topo.shape[1]).astype(np.float32)
    grad = _values_pair(topo, ~live, rng, np.float32)[1].values

    ctx = Context()
    want_out = _SparseBiasGelu.forward(ctx, values, bias, topo)
    want_a, want_t, _ = ctx.saved
    want_g, want_gb = _SparseBiasGelu.backward(ctx, grad)

    layout = dispatch.live_layout(topo)
    rl = layout.block_rows
    colidx = np.ascontiguousarray(topo.column_indices, np.int64)
    a, t, out = _nan(values.shape), _nan(values.shape), _nan(values.shape)
    lib.repro_sbgelu_fwd1_f32(
        values.ctypes.data, bias.ctypes.data, colidx.ctypes.data, rl.ctypes.data,
        a.ctypes.data, t.ctypes.data, nnz, bs, 0.044715, float(_GELU_C),
    )
    for lo, hi, rows in layout.live_regions:
        np.tanh(t[lo:hi, :rows], out=t[lo:hi, :rows])
    lib.repro_gelu_posttanh_f32(
        a.ctypes.data, t.ctypes.data, out.ctypes.data, rl.ctypes.data, nnz, bs
    )
    for got, want in ((a, want_a), (t, want_t), (out, want_out)):
        _assert_same_bits(got, want)

    g, colsum = _nan(values.shape), _nan((nnz, bs))
    lib.repro_gelu_bwd_colsum_f32(
        grad.ctypes.data, a.ctypes.data, t.ctypes.data, g.ctypes.data,
        colsum.ctypes.data, rl.ctypes.data, nnz, bs, 3 * 0.044715, float(_GELU_C),
    )
    _assert_same_bits(g, want_g)
    # The reduceat tail is unchanged; feed it the native column sums.
    gb = np.zeros((topo.block_cols, bs), np.float32)
    nonempty, starts = segment_meta(topo, transpose=True)
    gb[nonempty] = np.add.reduceat(
        colsum[topo.transpose_block_offsets], starts, axis=0
    )
    _assert_same_bits(gb.reshape(-1), want_gb)


# ----------------------------------------------------------------------
# Column bands no group writes: the experts that received no tokens
# ----------------------------------------------------------------------
@pytest.fixture
def weight_grad_runners(lib):
    """The generated-C runners of the two expert-GEMM backward ops,
    built outside a lowered graph; a fallback to the host op raises."""

    def fell_back(*_):
        raise AssertionError("the native runner fell back to the host op")

    return tuple(
        runtime.make_backward(entry, Build(None, lib, None), fell_back)
        for entry in kernels.TABLE
        if entry.backward and kernels.replaced(entry) in (_SddMM, _DsdMM)
    )


def _saved(*tensors):
    ctx = Context()
    ctx.saved = tensors
    return ctx


@pytest.mark.parametrize(
    "rows",
    [[2, 1, 3, 1], [2, 0, 3, 1], [0, 2, 0, 0, 1, 0], [0, 0, 3, 0]],
    ids=["none-empty", "one-empty", "several-empty", "all-but-one-empty"],
)
def test_uncovered_bands_get_plus_zero_without_a_whole_buffer_fill(
    rng, weight_grad_runners, rows
):
    bs, k = 4, 6
    rows = np.array(rows)
    cols = np.array([2, 1, 1, 2, 1, 2][: len(rows)])
    live = [r * bs - 1 for r in rows if r]
    live[0] = 0  # a group with blocks but no token zeroes its own band
    topo = dispatch.with_live_rows(Topology.block_diagonal(rows, cols, bs), live)
    plan = dispatch.analyze(topo)
    in_gap = np.zeros(topo.block_cols, bool)
    for lo, hi in plan.col_gaps:
        assert lo < hi and not in_gap[lo:hi].any()
        in_gap[lo:hi] = True
    assert plan.cols_disjoint
    np.testing.assert_array_equal(in_gap, np.repeat(rows == 0, cols))
    no_tokens = np.repeat(rows == 0, cols * bs)
    edges = np.concatenate([[0], np.cumsum(cols * bs)])
    first = np.flatnonzero(rows)[0]  # ... and the live == 0 group's band
    no_tokens[edges[first] : edges[first + 1]] = True

    # Pad rows hold NaN for the grouped paths (never read) and zeros for
    # the per-block path (which multiplies them).
    pad = ~np.concatenate(
        [np.arange(r * bs) < lv for r, lv in zip(rows[rows > 0], live)]
    )
    m, n = topo.shape
    x = _poisoned(rng.standard_normal((m, k)).astype(np.float32), pad, 0)
    dy = _poisoned(rng.standard_normal((m, k)).astype(np.float32), pad, 0)
    h = [s.values for s in _values_pair(topo, pad, rng, np.float32)]
    dh = [s.values for s in _values_pair(topo, pad, rng, np.float32)]
    w1 = rng.standard_normal((k, n)).astype(np.float32)
    w2 = rng.standard_normal((n, k)).astype(np.float32)
    sdd_bwd, dsd_bwd = weight_grad_runners

    def both(run_sdd, run_dsd, i):
        # (DD^TS dW1 with the bands along axis 1, DS^TD dW2 along axis 0)
        return (
            run_sdd(_saved(x[i], w1, topo), dh[i])[1],
            run_dsd(_saved(h[i], w2, topo), dy[i])[1],
        )

    with mock.patch.object(arena, "zeros", wraps=arena.zeros) as zeros, nan_buffers():
        with dispatch_mode("grouped"):
            eager = both(_SddMM.backward, _DsdMM.backward, 1)
            native = both(sdd_bwd, dsd_bwd, 1)
    assert not any(
        call.args[0] in ((k, n), (n, k)) for call in zeros.call_args_list
    )
    with dispatch_mode("blocked"):
        blocked = both(_SddMM.backward, _DsdMM.backward, 0)
    for axis, got, nat, blk in zip((1, 0), eager, native, blocked):
        _assert_pad_is_plus_zero(got, no_tokens, axis)
        _assert_same_bits(nat, got)
        _assert_pad_is_plus_zero(blk, no_tokens, axis)
        np.testing.assert_allclose(got, blk, rtol=1e-5, atol=1e-5)


def test_overlapping_column_bands_keep_the_whole_buffer_fill(rng):
    topo = banded_causal_topology(8 * 4, 4, 2 * 4)
    plan = dispatch.analyze(topo)
    assert plan is not None and not plan.cols_disjoint and plan.col_gaps == ()
    with mock.patch.object(arena, "zeros", wraps=arena.zeros) as zeros, nan_buffers():
        out = dispatch.band_output(plan, 4, (topo.shape[1], 3), F4, 0)
        assert not out.any() and zeros.call_count == 1
        # The products themselves take the per-block path there, which
        # accumulates into a zero-filled output.
        s = BlockSparseMatrix(
            topo, rng.standard_normal((topo.nnz_blocks, 4, 4))
        )
        b = rng.standard_normal((topo.shape[0], 3))
        with dispatch_mode("grouped"):
            got = dsd(s, b, trans_s=True)
        assert zeros.call_count == 2
    np.testing.assert_allclose(got, dsd_reference(s, b, trans_s=True), atol=1e-12)


def test_cc_step_with_empty_experts_fills_no_weight_gradient(tmp_path, monkeypatch):
    """A ``skew_queue``-shaped step on the ``cc`` rung — 32 experts, a
    wide router init, so some expert is empty in most layer-steps —
    never ``arena.zeros`` a buffer the size of an expert weight."""
    from repro.core import dMoE
    from repro.data import LMDataset, PileConfig, SyntheticPile
    from repro.moe.router import Router
    from repro.nn import TransformerLM
    from repro.training import Adam, Trainer, TrainerConfig
    from repro.utils.rng import seed_all

    if not (lower.cc_available() and blas.available()):
        pytest.skip("no C toolchain / BLAS symbol in this environment")
    monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
    toolchain._reset_for_tests()
    hidden, experts, ffn, block, seq, vocab = 32, 32, 32, 8, 32, 64

    def moe(i):
        router = Router(
            hidden, experts, load_balance_coef=0.0, init_std=0.5, rng=2000 + i
        )
        return dMoE(hidden, ffn, experts, block_size=block, router=router, rng=1000 + i)

    def trainer(backend):
        seed_all(1)
        model = TransformerLM(
            vocab, hidden, num_layers=2, num_heads=2, max_seq_len=seq,
            ffn_factory=moe, rng=5,
        )
        pile = SyntheticPile(PileConfig(vocab_size=vocab, num_domains=4), seed=7)
        data = LMDataset(pile.token_stream(4000, seq, rng=1), seq_len=seq)
        config = TrainerConfig(
            global_batch=4, micro_batch=4, max_steps=10**9, eval_every=0,
            log_every=0, steady_state=True, backend=backend,
        )
        return Trainer(
            model, data, config=config, rng=1,
            optimizer=Adam(model.parameters(), lr=1e-3),
        )

    weight_shapes = {
        (hidden, experts * ffn), (experts * ffn, hidden), (experts, hidden, ffn)
    }
    cc, eager = trainer("cc"), trainer("eager")
    try:
        with mock.patch.object(arena, "zeros", wraps=arena.zeros) as zeros:
            cc_losses = [cc.train_step(s) for s in range(6)]
        filled = [c.args[0] for c in zeros.call_args_list if c.args[0] in weight_shapes]
        moes = [m for m in cc.model.modules() if getattr(m, "last_plan", None)]
        assert any((m.last_plan.tokens_per_expert == 0).any() for m in moes)
        assert all(
            dispatch.use_grouped(t, dispatch.analyze(t), True)
            for t in (m.last_topology for m in moes)
        )
        assert filled == []
        assert cc_losses == [eager.train_step(s) for s in range(6)]
        for a, b in zip(cc.optimizer.params, eager.optimizer.params):
            _assert_same_bits(a.data, b.data)
    finally:
        toolchain._reset_for_tests()


# ----------------------------------------------------------------------
# Banded operands: expert-major weights read where they live
# ----------------------------------------------------------------------
@st.composite
def banded_cases(draw):
    """``(topology with live rows over equal-width experts, pad-row mask,
    experts, seed)``: ragged, one-token (the one-row rule), no-token and
    no-block experts, down to every token on one expert."""
    bs = draw(st.sampled_from([2, 16]))
    experts = draw(st.integers(1, 5))
    width = draw(st.sampled_from([1, 2, 4]))  # blocks per expert band
    rows = [draw(st.integers(0, 3)) for _ in range(experts)]
    if draw(st.booleans()) or not any(rows):  # all tokens to one expert
        keep = draw(st.integers(0, experts - 1))
        rows = [max(r, 1) if e == keep else 0 for e, r in enumerate(rows)]
    live = [
        draw(st.sampled_from([0, 1, r * bs, r * bs - (bs - 1), draw(st.integers(1, r * bs))]))
        for r in rows if r
    ]
    topo = dispatch.with_live_rows(
        Topology.block_diagonal(np.array(rows), np.full(experts, width), bs), live
    )
    pad = ~np.concatenate(
        [np.arange(r * bs) < lv for r, lv in zip([r for r in rows if r], live)]
    )
    return topo, pad, experts, draw(st.integers(0, 2**31 - 1))


def _banded(w_flat, experts):
    """``(K, E * F)`` as the expert-major ``(E, K, F)`` it is a copy of."""
    k, n = w_flat.shape
    return np.ascontiguousarray(w_flat.reshape(k, experts, n // experts).transpose(1, 0, 2))


def _w1_products(x, w, dh, topo, run_bwd=None):
    """The three products that touch layer-1 weights — SDD, DSD^T, DD^TS
    — through the autograd op (or a native backward runner)."""
    ctx = Context()
    h = _SddMM.forward(ctx, x, w, topo)
    dx, dw = (run_bwd or _SddMM.backward)(ctx, dh)
    return h, dx, dw


@settings(max_examples=60, deadline=None, derandomize=True)
@given(banded_cases())
def test_banded_weights_give_the_flat_operands_bits(lib, case):
    """NumPy grouped executor = generated-C runner = the same products
    over the materialised ``(K, E * F)`` copy, bit for bit — and in
    blocked mode too; bands no group writes are exact ``+0.0`` out of a
    NaN-filled arena."""
    topo, pad, experts, seed = case
    rng = np.random.default_rng(seed)
    m, n = topo.shape
    k = int(rng.integers(2, 7))
    x = _poisoned(rng.standard_normal((m, k)).astype(np.float32), pad, 0)
    dh = [s.values for s in _values_pair(topo, pad, rng, np.float32)]
    w_flat = rng.standard_normal((k, n)).astype(np.float32)
    w = _banded(w_flat, experts)
    entry = next(e for e in kernels.TABLE if kernels.replaced(e) is _SddMM)
    native_fwd = runtime.make_forward(entry, Build(None, lib, None))

    def fell_back(*_):
        raise AssertionError("the native runner fell back to the host op")

    native_bwd = runtime.make_backward(entry, Build(None, lib, None), fell_back)
    written = np.zeros(n, bool)
    for _, _, clo, chi, *_ in dispatch.analyze(topo).element_groups(topo.block_size):
        written[clo:chi] = True

    for mode, i in (("grouped", 1), ("blocked", 0)):
        # Grouped paths never read a pad row (NaN there); the per-block
        # path multiplies them (zeros there).
        with dispatch_mode(mode), nan_buffers():
            flat = _w1_products(x[i], w_flat, dh[i], topo)
            banded = _w1_products(x[i], w, dh[i], topo)
        assert banded[2].shape == w.shape and banded[2].flags.c_contiguous
        for got, want in zip(banded, flat[:2] + (_banded(flat[2], experts),)):
            _assert_same_bits(got, want)
        _assert_pad_is_plus_zero(flat[2], ~written, 1)
        if mode == "blocked" or not dispatch.use_grouped(topo, dispatch.analyze(topo), True):
            continue
        with dispatch_mode(mode), nan_buffers():
            for operand in (w_flat, w):
                saved, h = native_fwd(x[i], operand, topo)
                ctx = _saved(*saved)
                want = flat if operand is w_flat else banded
                for got, ref in zip((h, *native_bwd(ctx, dh[i])), want):
                    _assert_same_bits(got, ref)


def test_a_group_across_two_bands_is_refused(lib, rng):
    """Three experts of 8 columns against weights cut into two bands of
    12: the middle group straddles.  The NumPy executors raise, the
    native contract declines on exactly that clause, and the per-block
    path — which never slices a band — still answers."""
    bs, k = 4, 6
    topo = dispatch.with_live_rows(
        Topology.block_diagonal(np.array([2, 2, 2]), np.full(3, 2), bs), [8, 5, 1]
    )
    x = rng.standard_normal((topo.shape[0], k)).astype(np.float32)
    w_flat = rng.standard_normal((k, 24)).astype(np.float32)
    dh = rng.standard_normal((topo.nnz_blocks, bs, bs)).astype(np.float32)
    good, bad = _banded(w_flat, 3), _banded(w_flat, 2)
    assert dispatch.bands_fit(topo, 8) and not dispatch.bands_fit(topo, 12)
    assert dispatch.bands_fit(topo, 24)  # one band: the 2-D case

    entry = next(e for e in kernels.TABLE if kernels.replaced(e) is _SddMM)
    clauses = [c for c in entry.contract.clauses if isinstance(c, Rel)]
    assert [c.name for c in clauses if not c.fn(x, bad, topo)] == [
        "weights fit, every group inside one band"
    ]
    assert all(c.fn(x, good, topo) for c in clauses)
    native_fwd = runtime.make_forward(entry, Build(None, lib, None))
    assert native_fwd(x, bad, topo) is None and native_fwd(x, good, topo)

    with dispatch_mode("grouped"):
        with pytest.raises(ValueError, match="straddles"):
            sdd(x, bad, topo)
        s = BlockSparseMatrix(topo, dh)
        with pytest.raises(ValueError, match="straddles"):
            dsd(s, bad, trans_b=True)
        with pytest.raises(ValueError, match="straddles"):
            dds(x, s, trans_a=True, bands=2)
    with dispatch_mode("blocked"):
        _assert_same_bits(sdd(x, bad, topo).values, sdd(x, w_flat, topo).values)
    for banded_where_rows_are_sliced in (
        lambda: sdd(x, good.transpose(0, 2, 1), topo, trans_b=True),
        lambda: dsd(s, good),
        lambda: dds(x, s, trans_a=True, trans_s=True, bands=3),
    ):
        with pytest.raises(ValueError):
            banded_where_rows_are_sliced()


# ----------------------------------------------------------------------
# A topology without live rows behaves exactly as before
# ----------------------------------------------------------------------
def _padded_group_products(topo, x, w, vals, dy):
    """The per-group padded GEMMs the grouped path ran before live rows
    existed, written out directly."""
    bs = topo.block_size
    plan = dispatch.analyze(topo)
    h = np.empty((topo.nnz_blocks, bs, bs), np.float32)
    y = np.zeros((topo.shape[0], dy.shape[1]), np.float32)
    dw = np.zeros((topo.shape[1], dy.shape[1]), np.float32)
    for rlo, rhi, clo, chi, r, c, v0 in plan.element_groups(bs):
        h[v0 : v0 + r * c].reshape(r, c, bs, bs)[...] = (
            (x[rlo:rhi] @ w[:, clo:chi]).reshape(r, bs, c, bs).swapaxes(1, 2)
        )
        s_g = vals[v0 : v0 + r * c].reshape(r, c, bs, bs).swapaxes(1, 2)
        s_g = s_g.reshape(r * bs, c * bs)
        y[rlo:rhi] = s_g @ dy[clo:chi]
        dw[clo:chi] = s_g.T @ dy[rlo:rhi]
    return h, y, dw


@pytest.mark.parametrize("bs", [2, 16])
def test_topology_without_live_rows_runs_padded_gemms(rng, bs):
    topo = Topology.block_diagonal(np.array([2, 0, 1, 3]), np.array([2, 1, 2, 1]), bs)
    assert topo.live_rows is None
    layout = dispatch.live_layout(topo)
    assert not layout.has_padding and layout.pad_regions == ()
    assert layout.live_regions == ((0, topo.nnz_blocks, bs),)
    assert all(lv == m == r * bs for (lv, m), r in zip(layout.rows, [2, 1, 3]))

    m, n = topo.shape
    x = rng.standard_normal((m, 6)).astype(np.float32)
    w = rng.standard_normal((6, n)).astype(np.float32)
    vals = rng.standard_normal((topo.nnz_blocks, bs, bs)).astype(np.float32)
    dy = rng.standard_normal((max(m, n), 6)).astype(np.float32)
    h, y, dw = _padded_group_products(topo, x, w, vals, dy)
    s = BlockSparseMatrix(topo, vals)
    with dispatch_mode("grouped"):
        _assert_same_bits(sdd(x, w, topo).values, h)
        _assert_same_bits(dsd(s, dy[:n]), y)
        _assert_same_bits(dsd(s, dy[:m], trans_s=True), dw)


def test_sparse_attention_topology_is_untouched(rng):
    """Banded attention patterns carry no live rows: the grouped SDD/DSD
    still run whole groups, the column-overlapping variants still fall
    back, and the bias/GELU ops still cover every row."""
    topo = banded_causal_topology(8 * 4, 4, 2 * 4)
    assert topo.live_rows is None
    plan = dispatch.analyze(topo)
    q = rng.standard_normal((topo.shape[0], 5))
    kt = rng.standard_normal((5, topo.shape[1]))
    with dispatch_mode("grouped"):
        got = sdd(q, kt, topo)
    np.testing.assert_allclose(
        got.values, sdd_reference(q, kt, topo).values, atol=1e-12
    )
    assert plan is None or not dispatch.live_layout(topo).has_padding
    bias = rng.standard_normal(topo.shape[1])
    np.testing.assert_array_equal(
        add_bias_columns(got, bias).to_dense(),
        np.where(got.to_dense() != 0, got.to_dense() + bias, 0.0),
    )


# ----------------------------------------------------------------------
# The view, its validation, the rule, the counters
# ----------------------------------------------------------------------
class TestLiveLayout:
    def test_view_shares_metadata_and_compares_equal(self):
        base = Topology.block_diagonal(np.array([2, 1]), np.array([1, 1]), 4)
        view = dispatch.with_live_rows(base, [5, 1])
        assert view == base and hash(view) == hash(base)
        assert view.memo is base.memo
        assert view.column_indices is base.column_indices
        assert dispatch.analyze(view) is dispatch.analyze(base)
        assert dispatch.group_table(view) is dispatch.group_table(base)
        assert base.live_rows is None  # the cached entry is never mutated
        assert dispatch.live_layout(view) is dispatch.live_layout(view)
        assert dispatch.live_layout(view) is not dispatch.live_layout(base)

    def test_forms_of_one_layout(self):
        bs = 4
        topo = dispatch.with_live_rows(
            Topology.block_diagonal(np.array([2, 1, 2]), np.array([2, 1, 1]), bs),
            [5, 1, 0],
        )
        layout = dispatch.live_layout(topo)
        assert layout.rows == ((5, 5), (1, 2), (0, 0))  # the one-row rule
        np.testing.assert_array_equal(layout.table, [[5, 5], [1, 2], [0, 0]])
        assert layout.table.dtype == np.int64 and layout.table.flags.c_contiguous
        assert (layout.rows_live, layout.rows_padded) == (6, 20)
        assert layout.live_regions == ((0, 2, 4), (2, 4, 1), (4, 5, 1))
        assert layout.pad_regions == ((2, 4, 1), (4, 5, 1), (5, 7, 0))
        np.testing.assert_array_equal(layout.block_rows, [4, 4, 1, 1, 1, 0, 0])

    def test_one_row_rule(self):
        assert dispatch.gemm_rows(1, 8) == 2
        assert dispatch.gemm_rows(1, 1) == 1  # bs == 1: no pad row to borrow
        assert [dispatch.gemm_rows(n, 8) for n in (0, 2, 7, 8)] == [0, 2, 7, 8]

    @pytest.mark.parametrize("bad", [[3], [3, 1, 1], [9, 1], [-1, 1]])
    def test_rejects_counts_that_do_not_fit(self, bad):
        base = Topology.block_diagonal(np.array([2, 1]), np.array([1, 1]), 4)
        with pytest.raises(ValueError, match="live_rows"):
            dispatch.with_live_rows(base, bad)

    def test_rejects_live_rows_without_group_structure(self):
        mask = np.array([[True, False, True], [False, True, False]])
        with pytest.raises(ValueError, match="live_rows"):
            dispatch.with_live_rows(Topology.from_block_mask(mask, 4), [1])


class TestMakeTopologyCarriesLiveRows:
    def test_tokens_per_nonempty_expert(self):
        idx = np.array([0] * 5 + [2] * 1 + [3] * 8)[:, None]
        plan = make_padded_plan(idx, 5, block_size=4)
        topo = make_topology(plan, 8)
        np.testing.assert_array_equal(topo.live_rows, [5, 1, 8])
        layout = dispatch.live_layout(topo)
        assert layout.rows_live == 14 and layout.rows_padded == plan.total_padded

    def test_counters_report_skipped_padding(self, rng):
        idx = np.array([0] * 5 + [1] * 1)[:, None]
        plan = make_padded_plan(idx, 2, block_size=4)
        topo = make_topology(plan, 8)
        x = rng.standard_normal((plan.total_padded, 3))
        w = rng.standard_normal((3, 16))
        stats.reset()
        with dispatch_mode("grouped"):
            h = sdd(x, w, topo)
            dsd(h, w.T)
        with dispatch_mode("blocked"):
            sdd(x, w, topo)
        from repro.observability import registry

        counts = registry().snapshot()["counters"]
        assert counts["sparse/sdd/rows_live"] == 6 + 12
        assert counts["sparse/sdd/rows_padded"] == 12 + 12
        assert (counts["sparse/dsd/rows_live"], counts["sparse/dsd/rows_padded"]) == (6, 12)
        # The FLOP figure stays the nominal padded one on every path.
        assert counts["sparse/sdd/flops"] == 2 * (2 * topo.nnz * 3)
        assert stats.rows_total() == (18 + 6, 24 + 12)
        assert stats.live_row_fraction() == (18 + 6) / (24 + 12)
        stats.reset()
        assert stats.rows_total() == (0, 0) and stats.live_row_fraction() == 1.0
