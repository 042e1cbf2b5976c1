"""Fused ops: each one's bitwise contract with the composition it
replaced, gradient correctness, and buffer-arena semantics (reuse across
generations, isolation within one).

The model calls the fused ops unconditionally, so the compositions live
here, as the oracles.  Each contract draws a domain of shapes (odd and
size-1 dims, empty and one-row sparse topologies, a single head, one
position) and demands forward **and** backward equal to the composition
bit for bit — with the arena off, and on with every buffer pooled and
the pool poisoned with NaN — plus the tape-node savings the op records.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    attention_core,
    bias_gelu,
    check_gradients,
    cross_entropy,
    dropout,
    dropout_residual,
    gelu,
    linear_bias,
    masked_softmax,
    softmax,
    softmax_cross_entropy,
    stats,
    where,
)
from repro.autograd import arena
from repro.autograd.arena import get_arena, steady_state
from repro.autograd.function import unbroadcast
from repro.core.topology_builder import make_topology
from repro.moe.permute import make_padded_plan
from repro.sparse import Topology, sparse_bias_add
from repro.sparse.autograd_ops import sparse_bias_gelu
from repro.sparse.dispatch import live_layout
from tests.conftest import random_topology

BS = 4


def _grads(out, *inputs):
    out.backward(np.ones_like(out.data))
    return [t.grad for t in inputs]


# ----------------------------------------------------------------------
# Gradient checks (float64 — exercises the in-place chains in f64)
# ----------------------------------------------------------------------
class TestFusedGradients:
    def test_bias_gelu(self, rng):
        x = rng.standard_normal((3, 5))
        b = rng.standard_normal(5)
        check_gradients(bias_gelu, [x, b])

    def test_bias_gelu_broadcast_rows(self, rng):
        x = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((1, 3, 4))
        check_gradients(bias_gelu, [x, b])

    def test_masked_softmax(self, rng):
        s = rng.standard_normal((2, 4, 4))
        mask = np.tril(np.ones((4, 4), dtype=bool))
        check_gradients(lambda a: masked_softmax(a, mask, 0.5), [s])

    def test_dropout_residual_identity(self, rng):
        y = rng.standard_normal((3, 4))
        r = rng.standard_normal((3, 4))
        check_gradients(lambda a, b: dropout_residual(a, b, 0.0), [y, r])

    def test_bias_dropout_residual_identity(self, rng):
        """A block's output projection: the bias lands through
        ``linear_bias``, ahead of ``dropout_residual``."""
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        r = rng.standard_normal((3, 4))
        check_gradients(
            lambda a, ww, bb, c: dropout_residual(linear_bias(a, ww, bb), c, 0.0),
            [x, w, b, r],
        )

    def test_softmax_cross_entropy(self, rng):
        logits = rng.standard_normal((6, 5))
        targets = rng.integers(0, 5, size=6)
        targets[2] = -100
        check_gradients(
            lambda l: softmax_cross_entropy(l, targets), [logits]
        )

    def test_sparse_bias_gelu(self, rng):
        topo = random_topology(rng, 3, 4, BS, 0.6)
        values = rng.standard_normal((topo.nnz_blocks, BS, BS))
        bias = rng.standard_normal(topo.shape[1])
        check_gradients(lambda v, b: sparse_bias_gelu(v, b, topo), [values, bias])

    def test_linear_bias(self, rng):
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        check_gradients(linear_bias, [x, w, b])

    def test_attention_core(self, rng):
        heads, hd, seq = 2, 3, 4
        qkv = rng.standard_normal((2, seq, 3 * heads * hd))
        mask = np.tril(np.ones((seq, seq), dtype=bool))
        check_gradients(
            lambda a: attention_core(a, mask, 1.0 / np.sqrt(hd), heads, hd),
            [qkv],
        )


# ----------------------------------------------------------------------
# Op-level contracts: forward AND backward bit-identical to the
# composition each fused op replaced, with the arena off and on, and the
# tape-node savings it records equal to what the composition records,
# less the one node the fused op does.
# ----------------------------------------------------------------------
#: A broadcast bias against a ``(..., n)`` operand: ``(n,)``, ``(1, n)``
#: and the operand's own shape.
BIAS_SHAPES = [
    lambda shape: shape[-1:],
    lambda shape: (1,) + shape[-1:],
    lambda shape: shape,
]
_DIM = st.integers(1, 5)
_SHAPES = st.lists(_DIM, min_size=1, max_size=3).map(tuple)
_DTYPES = st.sampled_from([np.float32, np.float64])
_SEEDS = st.integers(0, 2**16)


@contextlib.contextmanager
def _poisoned_arena():
    """The arena on with no malloc floor, every free buffer NaN: an op
    that reads a pooled buffer before writing all of it turns up NaN
    where its oracle has a number."""
    floor, arena.MIN_BUCKET = arena.MIN_BUCKET, 1
    ar = get_arena()
    ar.clear()
    try:
        with steady_state():
            for dtype in (np.float32, np.float64):
                for k in range(15):
                    for _ in range(4):
                        arena.empty((1 << k,), dtype).fill(np.nan)
            ar.next_generation()
            yield
    finally:
        ar.clear()
        arena.MIN_BUCKET = floor


def _run(fn, arrays, seed, upstream):
    """Forward and backward of ``fn`` over fresh leaves of ``arrays``
    from a random upstream gradient; copies of the output and the leaf
    gradients, and the tape nodes recorded and saved on the way."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    stats.reset()
    out = fn(*leaves)
    nodes, saved = stats.tape_nodes, stats.nodes_fused()
    data = out.data.copy()
    grad = np.random.default_rng(seed).standard_normal(data.shape).astype(data.dtype)
    out.backward(upstream(grad))
    return data, [leaf.grad.copy() for leaf in leaves], nodes, saved


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_contract(fused, composition, arrays, seed, upstream=lambda g: g, ops=1):
    """``ops`` is the number of fused ops ``fused`` chains."""
    want, want_grads, want_nodes, _ = _run(composition, arrays, seed, upstream)
    for scope in (contextlib.nullcontext, _poisoned_arena):
        with scope():
            out, grads, nodes, saved = _run(fused, arrays, seed, upstream)
        assert _same_bits(out, want), scope.__name__
        for i, (got, ref) in enumerate(zip(grads, want_grads)):
            assert _same_bits(got, ref), (scope.__name__, i)
        assert nodes == ops
        assert saved == want_nodes - ops


def _normal(r, shape, dtype):
    return r.standard_normal(shape).astype(dtype)


def _assert_attention(batch, seq, heads, head_dim, dtype, seed):
    r = np.random.default_rng(seed)
    qkv = _normal(r, (batch, seq, 3 * heads * head_dim), dtype)
    mask = np.tril(np.ones((seq, seq), dtype=bool))
    scale = 1.0 / np.sqrt(head_dim)

    def composition(qkv):
        q5 = qkv.reshape((batch, seq, 3, heads, head_dim)).transpose((2, 0, 3, 1, 4))
        q, k, v = q5[0], q5[1], q5[2]
        scores = (q @ k.transpose((0, 1, 3, 2))) * scale
        probs = softmax(where(mask, scores, Tensor(np.float32(-1e9))), axis=-1)
        ctx = probs @ v
        return ctx.transpose((0, 2, 1, 3)).reshape((batch, seq, heads * head_dim))

    _assert_contract(
        lambda qkv: attention_core(qkv, mask, scale, heads, head_dim),
        composition,
        [qkv],
        seed,
    )


class TestBitwiseEquivalence:
    @pytest.mark.parametrize(
        "bshape", BIAS_SHAPES, ids=[f"bshape{i}" for i in range(len(BIAS_SHAPES))]
    )
    @given(shape=_SHAPES, dtype=_DTYPES, seed=_SEEDS)
    @example(shape=(5, 7, 9), dtype=np.float32, seed=0)
    def test_bias_gelu(self, bshape, shape, dtype, seed):
        r = np.random.default_rng(seed)
        x, b = _normal(r, shape, dtype), _normal(r, bshape(shape), dtype)
        _assert_contract(bias_gelu, lambda x, b: gelu(x + b), [x, b], seed)

    @given(
        lead=st.lists(_DIM, min_size=1, max_size=2).map(tuple),
        k=st.integers(1, 7),
        n=st.integers(1, 7),
        bshape=st.sampled_from(BIAS_SHAPES),
        dtype=_DTYPES,
        seed=_SEEDS,
    )
    @example(lead=(5, 7), k=9, n=11, bshape=BIAS_SHAPES[0], dtype=np.float32, seed=0)
    def test_linear_bias(self, lead, k, n, bshape, dtype, seed):
        r = np.random.default_rng(seed)
        x, w = _normal(r, lead + (k,), dtype), _normal(r, (k, n), dtype)
        b = _normal(r, bshape(lead + (n,)), dtype)
        _assert_contract(linear_bias, lambda x, w, b: x @ w + b, [x, w, b], seed)

    def test_linear_bias_with_a_promoting_bias(self):
        """A float64 bias on a float32 product, which the in-place add
        would round back to float32, still gets ``x @ w + b``'s bits."""
        r = np.random.default_rng(0)
        x, w = _normal(r, (5, 6), np.float32), _normal(r, (6, 4), np.float32)
        b = _normal(r, (4,), np.float64)
        _assert_contract(linear_bias, lambda x, w, b: x @ w + b, [x, w, b], 0)

    def test_linear_bias_refuses_a_bias_that_widens_the_product(self):
        r = np.random.default_rng(0)
        x, w = _normal(r, (5, 6), np.float32), _normal(r, (6, 4), np.float32)
        with pytest.raises(ValueError, match="widens"):
            linear_bias(Tensor(x), Tensor(w), Tensor(_normal(r, (3, 1, 4), np.float32)))

    @given(
        blocks=st.tuples(st.integers(0, 4), st.integers(1, 4)),
        block_size=st.sampled_from([1, 2, 4]),
        density=st.sampled_from([0.0, 0.5, 1.0]),
        routed=st.booleans(),
        dtype=_DTYPES,
        seed=_SEEDS,
    )
    @example(blocks=(0, 2), block_size=4, density=1.0, routed=False,
             dtype=np.float32, seed=0)  # empty topology
    @example(blocks=(1, 3), block_size=4, density=1.0, routed=False,
             dtype=np.float32, seed=0)  # one block row
    @example(blocks=(1, 2), block_size=4, density=1.0, routed=True,
             dtype=np.float32, seed=0)  # one token: one row, all but one padding
    @example(blocks=(13, 3), block_size=4, density=1.0, routed=True,
             dtype=np.float32, seed=0)
    def test_sparse_bias_gelu(self, blocks, block_size, density, routed, dtype, seed):
        """A hand-built topology (every row live), or a dMoE's: experts'
        tokens padded to whole blocks, the pad rows known.  An upstream
        gradient zero on the pad rows is what every sparse product
        writes there."""
        r = np.random.default_rng(seed)
        rows, cols = blocks
        if routed:
            # ``rows`` tokens over ``cols`` experts, two blocks wide each.
            plan = make_padded_plan(r.integers(0, cols, rows), cols, block_size)
            topo = make_topology(plan, 2 * block_size)
        else:
            topo = Topology.from_block_mask(r.random((rows, cols)) < density, block_size)
        values = _normal(r, (topo.nnz_blocks, block_size, block_size), dtype)
        bias = _normal(r, topo.shape[1], dtype)

        def upstream(g):
            live_layout(topo).zero_pad_rows(g)
            return g

        _assert_contract(
            lambda v, b: sparse_bias_gelu(v, b, topo),
            lambda v, b: gelu(sparse_bias_add(v, b, topo)),
            [values, bias],
            seed,
            upstream,
        )

    @pytest.mark.parametrize("p,training", [(0.0, True), (0.3, True), (0.3, False)])
    @given(shape=_SHAPES, rshape=st.sampled_from(BIAS_SHAPES), dtype=_DTYPES, seed=_SEEDS)
    @example(shape=(5, 7, 9), rshape=BIAS_SHAPES[2], dtype=np.float32, seed=0)
    def test_dropout_residual(self, p, training, shape, rshape, dtype, seed):
        """Both sides draw their dropout mask from the same generator state."""
        r = np.random.default_rng(seed)
        y, res = _normal(r, shape, dtype), _normal(r, rshape(shape), dtype)
        _assert_contract(
            lambda y, res: dropout_residual(
                y, res, p, training, np.random.default_rng(seed)
            ),
            lambda y, res: res + dropout(
                y, p, training=training, rng=np.random.default_rng(seed)
            ),
            [y, res],
            seed,
        )

    def test_bias_dropout_residual(self):
        """A block's output projection, bias through dropout to the
        residual add: ``linear_bias`` then ``dropout_residual`` against
        ``r + dropout(x @ w + b)``."""
        r = np.random.default_rng(9)
        x, w = _normal(r, (4, 6), np.float32), _normal(r, (6, 8), np.float32)
        b, res = _normal(r, (8,), np.float32), _normal(r, (4, 8), np.float32)
        _assert_contract(
            lambda x, w, b, res: dropout_residual(
                linear_bias(x, w, b), res, 0.25, True, np.random.default_rng(9)
            ),
            lambda x, w, b, res: res + dropout(
                x @ w + b, 0.25, training=True, rng=np.random.default_rng(9)
            ),
            [x, w, b, res],
            9,
            ops=2,
        )

    @given(
        lead=st.lists(_DIM, min_size=0, max_size=2).map(tuple),
        seq=_DIM,
        causal=st.booleans(),
        scale=st.floats(0.05, 2.0),
        dtype=_DTYPES,
        seed=_SEEDS,
    )
    @example(lead=(3, 5), seq=9, causal=True, scale=0.125, dtype=np.float32, seed=0)
    def test_masked_softmax(self, lead, seq, causal, scale, dtype, seed):
        r = np.random.default_rng(seed)
        s = _normal(r, lead + (seq, seq), dtype)
        if causal:
            mask = np.tril(np.ones((seq, seq), dtype=bool))
        else:  # rows may be fully masked
            mask = r.random((seq, seq)) < 0.5
        _assert_contract(
            lambda s: masked_softmax(s, mask, scale),
            lambda s: softmax(where(mask, s * scale, Tensor(np.float32(-1e9))), axis=-1),
            [s],
            seed,
        )

    @given(
        batch=st.integers(1, 3),
        seq=_DIM,
        heads=st.integers(1, 3),
        head_dim=st.integers(1, 4),
        dtype=_DTYPES,
        seed=_SEEDS,
    )
    @example(batch=2, seq=1, heads=3, head_dim=2, dtype=np.float32, seed=0)
    @example(batch=2, seq=9, heads=3, head_dim=8, dtype=np.float32, seed=0)
    def test_attention_core(self, batch, seq, heads, head_dim, dtype, seed):
        _assert_attention(batch, seq, heads, head_dim, dtype, seed)

    def test_attention_core_under_arena(self):
        _assert_attention(2, 6, 3, 8, np.float32, 1)

    def test_attention_core_single_head_under_arena(self):
        # One head makes the merge/unmerge transposes contiguous, so the
        # internal reshapes become views — the aliasing guard that keeps
        # the arena from recycling a buffer the result uses.
        _assert_attention(2, 5, 1, 16, np.float32, 2)

    @given(
        lead=st.lists(_DIM, min_size=1, max_size=2).map(tuple),
        vocab=st.integers(1, 7),
        ignored=st.sampled_from([0.0, 0.4, 1.0]),
        ignore_index=st.sampled_from([-100, -1]),
        dtype=_DTYPES,
        seed=_SEEDS,
    )
    @example(lead=(2, 3), vocab=5, ignored=1.0, ignore_index=-100,
             dtype=np.float32, seed=0)  # every target ignored
    @example(lead=(5, 7), vocab=11, ignored=0.4, ignore_index=-100,
             dtype=np.float32, seed=0)
    def test_softmax_cross_entropy(self, lead, vocab, ignored, ignore_index, dtype, seed):
        """``ignored`` is the share of targets set to ``ignore_index``."""
        r = np.random.default_rng(seed)
        logits = _normal(r, lead + (vocab,), dtype)
        targets = r.integers(0, vocab, lead)
        targets[r.random(lead) < ignored] = ignore_index
        _assert_contract(
            lambda l: softmax_cross_entropy(l, targets, ignore_index=ignore_index),
            lambda l: cross_entropy(l, targets, ignore_index=ignore_index),
            [logits],
            seed,
        )

    def test_fused_identical_under_arena(self, rng):
        """The same fused computation, repeated across arena generations
        so pooled buffers actually recycle, keeps the same bits."""
        x = rng.standard_normal((4, 8)).astype(np.float32)
        b = rng.standard_normal(8).astype(np.float32)

        def run():
            xt, bt = Tensor(x, requires_grad=True), Tensor(b, requires_grad=True)
            out = bias_gelu(xt, bt)
            return out.data.copy(), [g.copy() for g in _grads(out, xt, bt)]

        ref_out, ref_grads = run()
        with steady_state():
            for _ in range(3):
                get_arena().next_generation()
                out, grads = run()
                assert np.array_equal(out, ref_out)
                for g, gr_ in zip(grads, ref_grads):
                    assert np.array_equal(g, gr_)


# ----------------------------------------------------------------------
# fp16-sim: mixed dtypes must take the reference fallback, not the
# in-place chain (which would silently promote under NEP 50).
# ----------------------------------------------------------------------
class TestHalfPrecisionFallback:
    def test_bias_gelu_fp16(self, rng):
        x = rng.standard_normal((4, 8)).astype(np.float16)
        b = rng.standard_normal(8).astype(np.float16)
        fused = bias_gelu(Tensor(x), Tensor(b))
        ref = gelu(Tensor(x) + Tensor(b))
        assert fused.data.dtype == ref.data.dtype
        assert np.array_equal(fused.data, ref.data)

    def test_dropout_residual_mixed(self, rng):
        y = rng.standard_normal((4, 8)).astype(np.float16)
        r = rng.standard_normal((4, 8)).astype(np.float32)
        fused = dropout_residual(Tensor(y), Tensor(r), 0.5, rng=np.random.default_rng(3))
        ref = Tensor(r) + dropout(Tensor(y), 0.5, rng=np.random.default_rng(3))
        assert fused.data.dtype == ref.data.dtype
        assert np.array_equal(fused.data, ref.data)


# ----------------------------------------------------------------------
# Buffer arena semantics
# ----------------------------------------------------------------------
#: Any shape at or above ``arena.MIN_BUCKET`` elements is pooled; the
#: tests use comfortably-large shapes so they exercise the pooled path.
_POOLED = (64, 64)  # 4096 elements


class TestArena:
    def test_disabled_by_default(self):
        buf = arena.empty(_POOLED, np.float32)
        assert not get_arena().owns(buf)

    def test_small_requests_bypass_pool(self):
        with steady_state():
            ar = get_arena()
            ar.clear()
            small = arena.empty((16,), np.float32)
            assert not ar.owns(small)
            assert ar.pooled_bytes == 0
            assert ar.skipped == 1
            ar.clear()

    def test_reuse_across_generations(self):
        with steady_state():
            ar = get_arena()
            ar.clear()
            a = arena.empty(_POOLED, np.float32)
            base_a = a.base
            assert base_a is not None and ar.owns(a)
            ar.next_generation()
            b = arena.empty(_POOLED, np.float32)
            assert b.base is base_a  # same pooled storage, zero new bytes
            ar.clear()

    def test_isolation_within_generation(self):
        with steady_state():
            ar = get_arena()
            ar.clear()
            a = arena.empty(_POOLED, np.float32)
            b = arena.empty(_POOLED, np.float32)
            assert a.base is not b.base  # both live: distinct storage
            ar.clear()

    def test_release_recycles_immediately(self):
        with steady_state():
            ar = get_arena()
            ar.clear()
            a = arena.empty(_POOLED, np.float32)
            base_a = a.base
            arena.release(a)
            b = arena.empty(_POOLED, np.float32)
            assert b.base is base_a
            ar.clear()

    def test_release_accepts_views(self):
        with steady_state():
            ar = get_arena()
            ar.clear()
            a = arena.empty(_POOLED, np.float32)
            base_a = a.base
            arena.release(a.reshape(-1)[: a.size])  # view, not the handle
            b = arena.empty(_POOLED, np.float32)
            assert b.base is base_a
            ar.clear()

    def test_dtype_keys_do_not_alias(self):
        with steady_state():
            ar = get_arena()
            ar.clear()
            a = arena.empty(_POOLED, np.float32)
            ar.next_generation()
            b = arena.empty(_POOLED, np.float64)
            assert b.base is not a.base
            ar.clear()

    def test_zeros_is_zero_filled(self):
        with steady_state():
            ar = get_arena()
            ar.clear()
            a = arena.empty(_POOLED, np.float32)
            a[:] = 7.0
            ar.next_generation()
            z = arena.zeros(_POOLED, np.float32)
            assert np.array_equal(z, np.zeros(_POOLED, np.float32))
            ar.clear()

    def test_hit_rate_reaches_one_post_warmup(self):
        with steady_state():
            ar = get_arena()
            ar.clear()
            shapes = [(65, 37), (4096,), (16, 16, 16)]
            for s in shapes:
                arena.empty(s, np.float32)
            ar.next_generation()
            h0, m0 = ar.hits, ar.misses
            for s in shapes:
                arena.empty(s, np.float32)
            assert ar.hits - h0 == len(shapes)
            assert ar.misses == m0
            ar.clear()


# ----------------------------------------------------------------------
# Satellites: item() error message, unbroadcast fast path
# ----------------------------------------------------------------------
class TestSatellites:
    def test_item_scalar_ok(self):
        assert Tensor(np.float32(3.5)).item() == pytest.approx(3.5)
        assert Tensor(np.ones((1, 1), np.float32)).item() == 1.0

    def test_item_nonscalar_raises(self):
        with pytest.raises(ValueError, match="exactly one element"):
            Tensor(np.ones((2, 3), np.float32)).item()

    def test_unbroadcast_same_shape_is_identity(self):
        g = np.ones((3, 4), np.float32)
        assert unbroadcast(g, (3, 4)) is g

    def test_unbroadcast_reduces(self):
        g = np.ones((2, 3, 4), np.float32)
        assert unbroadcast(g, (3, 4)).shape == (3, 4)
        assert unbroadcast(g, (1, 4)).shape == (1, 4)
        assert np.array_equal(unbroadcast(g, (1, 4)), np.full((1, 4), 6.0))
