"""What a step runs on belongs to the thread that runs it.

``sim`` ranks are threads of one process, so a step's buffer pool,
buffer script, capture session and grad and inference modes must be the
calling thread's alone.  In the first three tests thread A parks inside
a scope (held open on an ``Event``) while the main thread steps a
``test_rung_matrix`` state; that state must train the bits it trains
with A gone.  The last steps three compiled states at once, one thread
each, released together by a barrier at every step and switching
threads every 100 µs: each trains the bits of its solo run.
"""

import contextlib
import sys
import threading

import pytest

from repro.autograd import get_arena, inference_mode, no_grad, steady_state
from repro.autograd.graph import CaptureSession
from repro.training.lr_schedule import ConstantLR
from tests.integration.test_rung_matrix import (
    CLIPS,
    LR,
    _assert_same_bits,
    _bits,
    _one_cache_for_the_module,  # noqa: F401  (autouse: one lower cache)
    _state,
    _train,
    needs_cc,
)

STEPS = 3
TIMEOUT_S = 120


def _make(backend):
    return _state(backend, False, ConstantLR(LR), CLIPS["clip-active"])


_SOLO = {}


def _solo(backend="eager"):
    """A state's bits over ``STEPS`` steps on the main thread alone."""
    if backend not in _SOLO:
        _SOLO[backend] = _train(_make(backend), range(STEPS))
    return _SOLO[backend]


@contextlib.contextmanager
def _parked(scope):
    """Thread A enters ``scope()`` and holds it until the block exits;
    yields what the scope yielded."""
    entered, leave, box = threading.Event(), threading.Event(), {}

    def hold():
        with scope() as value:
            box["value"] = value
            entered.set()
            leave.wait(TIMEOUT_S)

    a = threading.Thread(target=hold, daemon=True)
    a.start()
    assert entered.wait(TIMEOUT_S)
    try:
        yield box["value"]
    finally:
        leave.set()
        a.join(TIMEOUT_S)
        assert not a.is_alive()


def _requests(pool):
    return pool.hits + pool.misses + pool.skipped


@pytest.mark.parametrize("scope", [no_grad, inference_mode])
def test_a_grad_scope_on_another_thread_leaves_the_tape_on(scope):
    """At the parent commit A's ``no_grad`` was the process's: the step
    took no gradients, read a norm of 0.0, and still reported ``ok``."""
    ref = _solo()
    with _parked(scope):
        bits = _train(_make("eager"), range(STEPS))
    assert all(norm > 0 for norm in bits[1])
    _assert_same_bits(bits, ref)


def test_a_steady_scope_on_another_thread_leaves_the_reference_unpooled():
    """The reference rung allocates from NumPy whatever another thread's
    scope says; at the parent commit it took 288 buffers from A's pool."""
    ref = _solo()
    with _parked(steady_state) as pool_a:
        pools = {id(p): p for p in (pool_a, get_arena())}
        before = {k: _requests(p) for k, p in pools.items()}
        bits = _train(_make("eager"), range(STEPS))
        taken = {k: _requests(p) - before[k] for k, p in pools.items()}
    assert pool_a is not get_arena()
    assert set(taken.values()) == {0}
    _assert_same_bits(bits, ref)


@contextlib.contextmanager
def _capturing():
    session = CaptureSession(("parked",), {}).begin()
    try:
        yield session
    finally:
        session.abort()


@needs_cc
def test_a_capture_on_another_thread_records_none_of_this_threads_ops():
    """A ``cc`` state captures its own graph beside A's open session (the
    parent commit raised 'a CaptureSession is already active'), and A's
    session records none of its ops."""
    ref = _solo()
    with _parked(_capturing) as session:
        state = _make("cc")
        bits = _train(state, range(STEPS))
    assert session.records == []
    assert state.graph._lowered is not None
    _assert_same_bits(bits, ref)


@needs_cc
def test_compiled_states_step_concurrently_to_their_solo_bits():
    """Three ``cc`` states (one more thread than this box's two cores)
    take every step together: each captures, lowers, records and serves
    its buffer plans on its own thread's record and pool."""
    world = 3
    ref = _solo("cc")
    barrier = threading.Barrier(world, timeout=TIMEOUT_S)
    results, errors = [None] * world, []

    def rank(i):
        try:
            state = _make("cc")
            losses, norms, vals = [], [], []
            for step in range(STEPS):
                barrier.wait()
                loss, norm, val = _train(state, [step])[:3]
                losses += loss
                norms += norm
                vals += val
            results[i] = _bits(state, losses, norms, vals)
        except BaseException as exc:  # re-raised below, traceback and all
            errors.append(exc)  # before the abort: the first error is the cause
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=rank, args=(i,), daemon=True) for i in range(world)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    for bits in results:
        _assert_same_bits(bits, ref)
