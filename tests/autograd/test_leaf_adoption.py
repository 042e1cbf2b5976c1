"""A leaf adopts the gradient array that reaches it — only when the
array is provably the walk's alone.

Every case builds the same tape three ways: the copying walk (arena off:
the allocating reference), the eager walk with the arena on, and a
captured graph replayed three times (the replay that records its memory
plan and two served by it).  ``p.grad`` must be bitwise the copying walk's
everywhere; ``stats.leaf_copy_bytes`` says which first contributions
were copied after all; and scribbling over every buffer the walk gave
back to the pool must leave every ``p.grad`` intact.
"""

import numpy as np
import pytest

from repro.autograd import CaptureSession, Tensor, arena, stats, steady_state
from repro.autograd.function import Function
from repro.resilience.faults import (
    NAN_GRAD,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.resilience.guardrails import GuardrailConfig

SHAPE = (64, 64)  # above arena.MIN_BUCKET: pooled, so adoptable
NBYTES = 64 * 64 * 4


class _ReturnsSaved(Function):
    """``y = 2x`` whose backward hands out the very buffer its forward
    saved (an arena buffer born before the walk)."""

    @staticmethod
    def forward(ctx, x):
        doubled = arena.empty(x.shape, x.dtype)
        np.multiply(x, 2.0, out=doubled)
        ctx.save_for_backward(doubled)
        return x * 2.0

    @staticmethod
    def backward(ctx, grad):
        (doubled,) = ctx.saved
        return (doubled,)


class _BroadcastGradient(Function):
    """A total whose backward answers with a read-only broadcast view."""

    @staticmethod
    def forward(ctx, x):
        ctx.save_for_backward(x.shape)
        return x.sum()

    @staticmethod
    def backward(ctx, grad):
        return (np.broadcast_to(grad, ctx.saved[0]),)


def _const(rng, dtype=np.float32):
    return Tensor(rng.standard_normal(SHAPE).astype(dtype))


# name -> (number of leaves, loss(leaves, rng), leaf copies expected)
CASES = {
    # _Add hands the same array to both inputs; the walk sums them into
    # a buffer of its own, and that buffer is the leaf's.
    "a_plus_a": (1, lambda p, r: ((p[0] + p[0]) * _const(r)).sum(), 0),
    # The tied LM head: one parameter, two uses.
    "used_twice": (
        1, lambda p, r: (_const(r) @ p[0]).sum() + (p[0] * _const(r)).sum(), 0,
    ),
    # A C-contiguous view of a buffer nobody else holds.
    "fed_by_a_view": (
        1, lambda p, r: (p[0].reshape((SHAPE[0] * SHAPE[1],)) * 3.0).sum(), 0,
    ),
    "read_only_broadcast": (1, lambda p, r: _BroadcastGradient.apply(p[0]), 1),
    "non_contiguous": (1, lambda p, r: (p[0].T * _const(r)).sum(), 1),
    "aliases_a_saved_activation": (
        1, lambda p, r: (_ReturnsSaved.apply(p[0]) * 1.0).sum(), 1,
    ),
    # One array reaches two leaves: the first must copy, the second is
    # then its only holder.
    "one_array_two_leaves": (2, lambda p, r: ((p[0] + p[1]) * _const(r)).sum(), 1),
    "wider_dtype": (1, lambda p, r: (p[0] * _const(r, np.float64)).sum(), 1),
}


def _leaves(n):
    rng = np.random.default_rng(7)
    return [
        Tensor(rng.standard_normal(SHAPE).astype(np.float32), requires_grad=True)
        for _ in range(n)
    ]


def _scribble_over_free_buffers():
    for stack in arena.get_arena()._free.values():
        for base, _views in stack:
            base.fill(np.nan)


def _assert_grads(leaves, want, copies):
    assert stats.leaf_copy_bytes == copies * NBYTES
    _scribble_over_free_buffers()
    for p, ref in zip(leaves, want):
        assert p.grad.dtype == ref.dtype and p.grad.flags.c_contiguous
        assert p.grad.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", CASES)
def test_adopted_only_where_exclusive(name):
    n, loss, copies = CASES[name]

    leaves = _leaves(n)
    stats.reset()
    loss(leaves, np.random.default_rng(3)).backward()
    want = [p.grad.copy() for p in leaves]
    assert stats.leaf_copy_bytes == n * NBYTES  # arena off: every leaf copies

    with steady_state():
        pool = arena.get_arena()
        # The eager walk.
        leaves = _leaves(n)
        pool.next_generation()
        stats.reset()
        loss(leaves, np.random.default_rng(3)).backward()
        _assert_grads(leaves, want, copies)

        # The replayed walk: capture, then the replay that records the
        # memory plan and two served by it (same decisions, or the
        # layout would not survive).
        leaves = _leaves(n)
        pool.next_generation()
        session = CaptureSession(("adoption", name), {}).begin()
        try:
            out = loss(leaves, np.random.default_rng(3))
            out.backward(retain_graph=True)
        except BaseException:
            session.abort()
            raise
        graph = session.finalize(out, out)
        for replay in range(3):
            for p in leaves:
                p.grad = None
            pool.next_generation()
            stats.reset()
            graph.replay({})
            _assert_grads(leaves, want, copies)
        layout = graph.memory.slots[0]
        assert layout.valid and layout.cursor == len(layout.entries)

        # Accumulation: a second micro batch adds into the adopted
        # buffers in place (a wider gradient promotes instead, as ever).
        if name == "wider_dtype":
            return
        held = [p.grad for p in leaves]
        graph.replay({}, slot=1)
        for p, buf, ref in zip(leaves, held, want):
            assert p.grad is buf
            np.testing.assert_array_equal(p.grad, ref + ref)
        pool.next_generation()


def test_a_user_supplied_seed_is_never_adopted():
    with steady_state():
        p = Tensor(np.zeros(SHAPE, np.float32), requires_grad=True)
        seed = np.ones(SHAPE, np.float32)
        p.backward(seed)
        assert p.grad is not seed and not np.shares_memory(p.grad, seed)
        arena.get_arena().next_generation()


def test_adopted_buffers_stay_out_of_the_pool_until_the_next_generation():
    with steady_state():
        pool = arena.get_arena()
        pool.next_generation()
        (p,) = _leaves(1)
        ((p + p) * 2.0).sum().backward()
        assert pool.owns(p.grad)
        before = p.grad.copy()
        for _ in range(8):  # same bucket, over and over: never p.grad's
            buf = arena.empty(SHAPE, np.float32)
            assert not np.shares_memory(buf, p.grad)
            buf.fill(np.nan)
            arena.release(buf)
        np.testing.assert_array_equal(p.grad, before)
        pool.next_generation()
        assert not pool.owns(p.grad)


@pytest.mark.parametrize("backend", ["eager", "replay"])
def test_accumulation_and_a_rewind_match_the_copying_walk(backend):
    """Two micro batches per step, a NaN gradient skipped and a rewind
    in between: the adopting walks (steady) land on the copying walk's
    (allocating eager) bits."""
    from tests.integration.test_step_graph import _assert_same, _fingerprint, _trainer

    def run(backend, steady):
        schedule = FaultSchedule(
            [FaultEvent(NAN_GRAD, step=2), FaultEvent(NAN_GRAD, step=3)]
        )
        tr = _trainer(
            backend, steady=steady, injector=FaultInjector(schedule),
            guardrails=GuardrailConfig(max_consecutive_bad=2, snapshot_every=1),
            max_steps=6, eval_every=3,
        )
        hist = tr.train()
        assert tr.skipped_steps == 2 and tr.guard.rewinds >= 1
        return tr, hist

    copying = run("eager", steady=False)
    adopting = run(backend, steady=True)
    _assert_same(_fingerprint(*copying), _fingerprint(*adopting))
    # ... and the adopting run did adopt: all its last step copied were
    # gradients too small for the pool to own.
    params = adopting[0].optimizer.params
    unpooled = sum(p.data.nbytes for p in params if p.data.size < arena.MIN_BUCKET)
    assert 0 < stats.leaf_copy_bytes <= unpooled < sum(p.data.nbytes for p in params)
