"""One ProcessGroup contract, two transports.

The forked ``"mp"`` backend must be bit-identical to the threaded
``"sim"`` reference (and therefore to the in-process collectives) for
every collective and for the full expert-parallel dMoE forward and
backward.  Faults must be *real* under mp — a
scheduled rank failure is a SIGKILL detected by peers — and no shared
memory may survive a run, clean or chaotic.
"""

import functools
import operator
import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.distributed import (
    CommLog,
    ExpertParallelDMoE,
    WorkerFailure,
    all_reduce,
    run_distributed,
)
from repro.distributed import shm
from repro.distributed.backend import ProcessGroup, open_echo_group
from repro.distributed.mp_backend import MpEchoGroup
from repro.moe.permute import make_padded_plan
from repro.resilience.faults import (
    CORRUPT_PAYLOAD,
    DELAY,
    RANK_FAILURE,
    CollectiveFault,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from tests.distributed.ep_ranks import (
    assert_matches_single_process,
    assert_ranks_equal,
    ep_rank,
    make_layer,
)

WORLDS = [2, 4]


def _collective_suite(group):
    """Every collective once, from one rank's point of view."""
    w = group.world
    base = np.arange(6, dtype=np.float64).reshape(2, 3) * (group.rank + 1)
    out = {}
    out["all_reduce"] = group.all_reduce(base)
    out["all_gather"] = group.all_gather(base + 0.5)
    send = [base + 10.0 * dst for dst in range(w)]
    out["all_to_all"] = group.all_to_all(send)
    pending = group.isend_all_to_all([s * 2.0 for s in send])
    out["self_payload"] = np.array(pending.self_payload, copy=True)
    out["isend_all_to_all"] = pending.wait()
    out["broadcast"] = group.broadcast(base * 3.0, root=w - 1)
    group.barrier()
    return out


def _collective_suite_expected(rank, world):
    """What :func:`_collective_suite` returns on ``rank``, in closed form."""
    base = [
        np.arange(6, dtype=np.float64).reshape(2, 3) * (r + 1) for r in range(world)
    ]
    return {
        "all_reduce": functools.reduce(operator.add, base),  # rank order
        "all_gather": [b + 0.5 for b in base],
        "all_to_all": [b + 10.0 * rank for b in base],  # listed by source
        "self_payload": (base[rank] + 10.0 * rank) * 2.0,
        "isend_all_to_all": [(b + 10.0 * rank) * 2.0 for b in base],
        "broadcast": base[world - 1] * 3.0,  # the root's array
    }


def _assert_values_equal(a, b, msg=""):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_values_equal(a[k], b[k], f"{msg}[{k}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), msg
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_values_equal(x, y, f"{msg}[{i}]")
    else:
        np.testing.assert_array_equal(a, b, err_msg=msg, strict=True)


class TestCollectiveBitIdentity:
    @pytest.mark.parametrize("world", WORLDS)
    def test_mp_matches_sim_bitwise(self, world):
        sim = run_distributed(_collective_suite, world, backend="sim")
        mp_ = run_distributed(_collective_suite, world, backend="mp")
        assert sim.backend == "sim" and mp_.backend == "mp"
        for rank in range(world):
            _assert_values_equal(
                sim.values[rank], mp_.values[rank], f"rank {rank}"
            )

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    @pytest.mark.parametrize("world", WORLDS)
    def test_values_in_closed_form(self, world, backend):
        res = run_distributed(_collective_suite, world, backend=backend)
        for rank in range(world):
            _assert_values_equal(
                res.values[rank],
                _collective_suite_expected(rank, world),
                f"rank {rank}",
            )

    @pytest.mark.parametrize("world", WORLDS)
    def test_mp_matches_in_process_reference(self, world):
        arrs = [
            np.arange(6, dtype=np.float64).reshape(2, 3) * (r + 1)
            for r in range(world)
        ]
        ref = all_reduce([a.copy() for a in arrs])
        res = run_distributed(_collective_suite, world, backend="mp")
        for rank in range(world):
            np.testing.assert_array_equal(
                res.values[rank]["all_reduce"], ref[rank], strict=True
            )

    def test_rejects_empty_world(self):
        with pytest.raises(ValueError, match="world"):
            run_distributed(_collective_suite, 0)

    def test_large_payloads_ride_shared_memory(self):
        """Above the inline threshold the segment path must carry the
        exact bytes (and leave nothing behind — checked suite-wide)."""
        big = np.arange(8192, dtype=np.float64)  # 64 KiB >> threshold

        def fn(group):
            return group.all_reduce(big * (group.rank + 1))

        res = run_distributed(fn, 2, backend="mp")
        expected = big * 1 + big * 2
        for v in res.values:
            np.testing.assert_array_equal(v, expected, strict=True)
        assert shm.leaked_segments(res.extras["session"]) == []


#: Rows per rank, by world size.  "one_expert" zeroes the router, so
#: every token ties onto the lowest expert ids and every shard but the
#: first receives nothing.
EP_BATCHES = {
    "even": lambda world: [6] * world,
    "uneven": lambda world: [1 + 3 * r for r in range(world)],
    "empty_rank": lambda world: [0] + [5] * (world - 1),
    "one_expert": lambda world: [6] * world,
}


def _ep_case(world, top_k, batches, seed=3):
    layer = make_layer(experts=12, top_k=top_k)
    if batches == "one_expert":
        layer.router.proj.weight.data[...] = 0.0
    rng = np.random.default_rng(seed)
    sizes = EP_BATCHES[batches](world)
    xs = [rng.standard_normal((n, 16)) for n in sizes]
    gs = [rng.standard_normal((n, 16)) for n in sizes]
    return layer, xs, gs


def _both_backends(fn, world, **kw):
    """``fn``'s rank values on ``"sim"`` and on ``"mp"``, asserted equal
    bit for bit, rank by rank; returns the ``"mp"`` ones."""
    sim = run_distributed(fn, world, backend="sim", **kw).values
    mp_ = run_distributed(fn, world, backend="mp", **kw).values
    for s, m in zip(sim, mp_):
        assert_ranks_equal(s, m)
    return mp_


def _ep_matrix(test):
    """world {1..4} x top-k {1, 2} x rank batches."""
    for name, values in (
        ("batches", list(EP_BATCHES)),
        ("top_k", [1, 2]),
        ("world", [1, 2, 3, 4]),
    ):
        test = pytest.mark.parametrize(name, values)(test)
    return test


class TestExpertParallelBitIdentity:
    """The expert-parallel conformance matrix: one layer, two transports,
    and the single-process layer it shards."""

    @_ep_matrix
    def test_forward_across_backends_and_reference(self, world, top_k, batches):
        """mp == sim, bitwise; both match the single-process dMoE to
        float tolerance."""
        layer, xs, _ = _ep_case(world, top_k, batches)
        ranks = _both_backends(ep_rank(layer, xs), world)
        for r in ranks:
            assert r["comm_log"].counts() == (
                {"all_to_all": 2} if world > 1 else {}
            )
        received = [r["tokens_received"] for r in ranks]
        assert sum(received) == sum(len(x) for x in xs) * top_k
        if batches == "one_expert":
            assert received[1:] == [0] * (world - 1)

        single, _ = layer(Tensor(np.concatenate(xs)))
        np.testing.assert_allclose(
            np.concatenate([r["output"] for r in ranks]), single.data, atol=1e-9
        )

    @_ep_matrix
    def test_forward_backward_across_backends_and_reference(self, world, top_k, batches):
        """Output, input, router and shard gradients and the comm logs are
        bit-identical between the two backends, and match the
        single-process layer's own autograd: outputs and input gradients
        concatenate, router gradients sum, shard gradients concatenate."""
        layer, xs, gs = _ep_case(world, top_k, batches, seed=7)
        ranks = _both_backends(ep_rank(layer, xs, gs), world)
        for r in ranks:
            assert r["comm_log"].counts() == (
                {"all_to_all": 4} if world > 1 else {}
            )
        assert_matches_single_process(layer, xs, gs, ranks)

    @pytest.mark.parametrize("batches", ["empty_rank", "one_expert"])
    def test_every_rank_enters_every_reverse_exchange(self, batches):
        """A rank with no tokens, and ranks that receive none, still take
        part in both backward exchanges.  Under a short deadline a rank
        that skipped one fails the run (a broken barrier on ``"sim"``, a
        silent peer on ``"mp"``) instead of hanging it."""
        layer, xs, gs = _ep_case(3, 2, batches)
        ranks = _both_backends(
            ep_rank(layer, xs, gs), 3, timeout_s=30.0, op_timeout_s=5.0
        )
        for r in ranks:
            assert r["comm_log"].counts() == {"all_to_all": 4}

    def test_plan_built_in_flight_receives_what_exchange_then_plan_does(self):
        """§5's dispatch written both ways over two forked ranks: the
        schedule the layer runs — post the token sends, build the local
        plan from the already-arrived ids, then wait — against the
        serialized one it replaced (exchange, then plan).  Same plan,
        and the very tokens the peers bucketed for this rank; what the
        overlap hides is a wall clock, that it moves no byte is held
        here."""
        world = 2
        layer = make_layer(experts=12, top_k=2)
        rng = np.random.default_rng(12)
        xs = [rng.standard_normal((128, 16)) for _ in range(world)]

        def buckets(ep, x):
            order, cuts, local_ids = ep._bucket(ep.router(Tensor(x)).expert_indices)
            # One piece per destination, each > shm.INLINE_THRESHOLD.
            return np.split(x[order // 2], cuts), np.split(local_ids, cuts)

        def plan(ep, ids):
            return make_padded_plan(ids[:, None], ep.num_experts, ep.block_size)

        def fn(group):
            ep = ExpertParallelDMoE(layer, group)
            send, send_ids = buckets(ep, xs[group.rank])
            ids = np.concatenate(group.all_to_all(send_ids))
            pending = group.isend_all_to_all(send)
            gather = plan(ep, ids).gather_indices
            overlapped = pending.wait(), gather
            tokens = group.all_to_all(send)
            return overlapped, (tokens, plan(ep, ids).gather_indices)

        ep = ExpertParallelDMoE(layer, SimpleNamespace(rank=0, world=world))
        sent = [buckets(ep, x)[0] for x in xs]
        values = run_distributed(fn, world, backend="mp").values
        for rank, (overlapped, serial) in enumerate(values):
            _assert_values_equal(overlapped, serial, f"rank {rank}")
            _assert_values_equal(
                overlapped[0], [sent[src][rank] for src in range(world)]
            )

    def test_gradients_land_on_each_ranks_own_parameters(self):
        """A rank's router and shard are its own copies, on forked ranks
        and on rank-threads alike: backward fills their ``.grad`` and
        leaves the layer the ranks were built from untouched."""
        world = 2
        layer, xs, gs = _ep_case(world, 1, "even", seed=11)

        def fn(group):
            ep = ExpertParallelDMoE(layer, group)
            out, _ = ep(Tensor(xs[group.rank], requires_grad=True))
            out.backward(gs[group.rank])
            graded = [n for n, p in ep.named_parameters() if p.grad is not None]
            shared = any(
                np.shares_memory(p.data, q.data)
                for p in ep.parameters()
                for q in layer.parameters()
            )
            return graded, shared

        for backend in ("sim", "mp"):
            for graded, shared in run_distributed(fn, world, backend=backend).values:
                assert sorted(graded) == ["b1", "b2", "router.proj.weight", "w1", "w2"]
                assert not shared
        assert all(p.grad is None for p in layer.parameters())


class TestRealFaults:
    def test_rank_kill_is_a_real_death(self):
        """A scheduled rank_failure SIGKILLs the worker; the supervisor
        reports the dead rank instead of hanging."""

        def fn(group):
            return group.all_reduce(np.ones(4))

        with pytest.raises(WorkerFailure) as ei:
            run_distributed(
                fn,
                2,
                backend="mp",
                timeout_s=30.0,
                op_timeout_s=2.0,
                faults=[FaultEvent(RANK_FAILURE, op="all_reduce", rank=1)],
            )
        assert 1 in ei.value.failed_ranks

    def test_sim_fails_a_rank_stuck_past_the_run_deadline(self):
        """A rank busy outside any collective past ``timeout_s`` fails
        the run as ``"timeout"`` on ``sim``, as ``mp``'s supervisor fails
        it, instead of holding the caller until it returns."""
        done = threading.Event()

        def fn(group):
            if group.rank == 1:
                end = time.perf_counter() + 2.0
                while time.perf_counter() < end:  # bounded spin
                    pass
                done.set()
            return group.rank

        t0 = time.perf_counter()
        with pytest.raises(WorkerFailure) as ei:
            run_distributed(fn, 2, backend="sim", timeout_s=0.3)
        assert time.perf_counter() - t0 < 1.5
        assert ei.value.failed_ranks == [1] and ei.value.reason == "timeout"
        assert done.wait(10.0)  # the abandoned rank ends before the test

    def test_corrupt_payload_reaches_the_peer(self):
        """Sender-side corruption plants a NaN the *receiver* observes —
        the bytes really crossed the process boundary."""

        def fn(group):
            recv = group.all_to_all(
                [np.ones(8) for _ in range(group.world)]
            )
            return [bool(np.isnan(p).any()) for p in recv]

        res = run_distributed(
            fn,
            2,
            backend="mp",
            faults=[FaultEvent(CORRUPT_PAYLOAD, op="all_to_all", rank=0)],
        )
        # Rank 1 sees the NaN in the payload that arrived from rank 0;
        # nobody else's buffers are touched.
        assert res.values[1][0] is True
        assert res.values[1][1] is False
        assert res.values[0] == [False, False]

    def test_sim_honours_the_rank_filter_like_mp(self):
        """``FaultEvent.rank`` is matched by every process group, the
        threaded ``sim`` one included: rank 0's payload is corrupted,
        rank 1's is not, exactly as under ``mp``."""

        def fn(group):
            recv = group.all_to_all(
                [np.ones(8) for _ in range(group.world)]
            )
            return [bool(np.isnan(p).any()) for p in recv]

        seen = {
            backend: run_distributed(
                fn,
                2,
                backend=backend,
                faults=[FaultEvent(CORRUPT_PAYLOAD, op="all_to_all", rank=0)],
            ).values
            for backend in ("sim", "mp")
        }
        assert seen["sim"] == seen["mp"] == [[False, False], [True, False]]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_delay_is_real_and_exposed_as_wait(self, backend):
        """A delayed rank makes its *peer* block — the stall lands in
        the peer's wait_s, the exposed-communication metric."""

        def fn(group):
            return group.all_reduce(np.ones(4))

        res = run_distributed(
            fn,
            2,
            backend=backend,
            faults=[
                FaultEvent(DELAY, op="all_reduce", rank=1, delay_s=0.3)
            ],
        )
        assert res.wait_s_per_rank[0] >= 0.1

    def test_no_shm_leak_after_rank_kill(self):
        """A SIGKILL'd receiver never unlinks its segments; the
        supervisor must sweep them before raising."""
        parent_prefix = f"rpd{os.getpid()}_"
        big = np.arange(8192, dtype=np.float64)

        def fn(group):
            return group.all_reduce(big)

        with pytest.raises(WorkerFailure):
            run_distributed(
                fn,
                2,
                backend="mp",
                timeout_s=30.0,
                op_timeout_s=2.0,
                faults=[FaultEvent(RANK_FAILURE, op="all_reduce", rank=1)],
            )
        assert shm.leaked_segments(parent_prefix) == []


class TestExpertParallelRetryOverProcesses:
    """Receipt validation + retry on forked ranks: the NaN crosses the
    process boundary, the ranks agree to re-issue, and everything the
    parent learns comes back through the ranks' return values."""

    def _run(self, policy, faults, backend="mp", before_backward=None):
        layer = make_layer(experts=12)
        rng = np.random.default_rng(3)
        xs = [rng.standard_normal((6, 16)) for _ in range(2)]
        fn = ep_rank(layer, xs, xs, policy, before_backward)
        return run_distributed(fn, 2, backend=backend, faults=faults).values

    def _corrupt(self, **kw):
        return [FaultEvent(CORRUPT_PAYLOAD, op="all_to_all", **kw)]

    def _assert_retried_once(self, clean, faulty):
        for c, f in zip(clean, faulty):
            # Same bits, backward exchanges included, and the same log:
            # volume is per logical exchange, not per transport attempt.
            assert_ranks_equal(c, f, ignore=("corrupt_detected", "retries"))
            assert (c["corrupt_detected"], c["retries"]) == (0, 0)
        # Rank 1 received rank 0's NaN; both ranks re-issued, once.
        assert [f["corrupt_detected"] for f in faulty] == [0, 1]
        assert [f["retries"] for f in faulty] == [1, 1]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_corrupted_exchange_is_retried_by_every_rank(self, backend):
        clean = self._run(RetryPolicy(max_retries=3), None, backend)
        faulty = self._run(
            RetryPolicy(max_retries=3), self._corrupt(rank=0), backend
        )
        self._assert_retried_once(clean, faulty)

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_corrupted_backward_exchange_is_retried_by_every_rank(self, backend):
        """The backward exchanges are validated and retried too: the
        corruption is armed on rank 0's group only once its forward is
        done, so the first exchange it can hit is the output gradients'."""

        def arm(group):
            if group.rank == 0:
                group._schedule = FaultSchedule(self._corrupt(rank=0))

        clean = self._run(RetryPolicy(max_retries=3), None, backend)
        faulty = self._run(RetryPolicy(max_retries=3), None, backend, arm)
        self._assert_retried_once(clean, faulty)

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_without_a_policy_the_nan_comes_through(self, backend):
        faulty = self._run(None, self._corrupt(rank=0), backend)
        assert not np.isfinite(
            np.concatenate([f["output"].reshape(-1) for f in faulty])
        ).all()
        assert [f["retries"] for f in faulty] == [0, 0]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_event_with_nothing_to_corrupt_stays_armed(self, backend):
        """The layer exchanges int64 expert ids before any token: an
        unranked event armed for all_to_all must not be spent on a
        payload with no float in it."""
        faulty = self._run(RetryPolicy(max_retries=3), self._corrupt(), backend)
        assert sum(f["corrupt_detected"] for f in faulty) == 1
        assert [f["retries"] for f in faulty] == [1, 1]

        def ids_only(group):
            ids = [np.arange(3) for _ in range(group.world)]
            first = group.all_to_all(ids)
            second = group.all_to_all([i * 0.5 for i in ids])
            return first, second

        res = run_distributed(ids_only, 2, backend=backend, faults=self._corrupt())
        for first, _ in res.values:
            for arr in first:
                np.testing.assert_array_equal(arr, np.arange(3), strict=True)
        # ...and fired on the next exchange that carried floats.
        assert np.isnan(res.values[1][1][0]).any()


class TestReduceSum:
    """The one reduction formula: the rank-ordered fold
    ``((p0 + p1) + p2) + ...``, which must stay bitwise the stacked sum
    it replaced wherever that sum was a fold."""

    @settings(max_examples=200)
    @given(
        world=st.sampled_from([1, 2, 3, 4, 5, 8]),
        dtype=st.sampled_from([np.float32, np.float64]),
        shape=st.sampled_from([(), (0,), (1,), (7,), (3, 5), (2, 0, 3), (129,)]),
        seed=st.integers(0, 2**16),
        with_out=st.booleans(),
    )
    def test_bitwise_equals_the_fold_and_the_stacked_sum(
        self, world, dtype, shape, seed, with_out
    ):
        rng = np.random.default_rng(seed)
        # Magnitudes far apart, so the order of additions shows.
        parts = [
            (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7)).astype(dtype)
            for _ in range(world)
        ]
        out = np.full(shape, np.nan, dtype) if with_out else None
        got = ProcessGroup._reduce_sum(parts, out=out)
        if with_out:
            assert got is out
        assert all(got is not part for part in parts)  # inputs are only read
        fold = functools.reduce(operator.add, parts)
        np.testing.assert_array_equal(got, fold, strict=True)
        # An axis-0 sum of the stack is that fold, except where NumPy
        # reduces along contiguous memory: 8+ ranks of one element are
        # summed pairwise (next test).
        if world < 8 or got.size != 1:
            stacked = np.sum(np.stack(parts, axis=0), axis=0)
            np.testing.assert_array_equal(got, stacked, strict=True)

    def test_where_the_stacked_sum_is_not_a_fold(self):
        """Why the formula is the fold and not ``np.sum(np.stack())``:
        a one-element array over 8 ranks stacks to 8 contiguous floats,
        which NumPy adds pairwise — an order no transport summing window
        by window could reproduce for one shape only."""
        parts = [np.float32([v]) for v in (1e8, 1, -1e8, 1, 1, 1, 1, 1)]
        fold = functools.reduce(operator.add, parts)
        np.testing.assert_array_equal(
            ProcessGroup._reduce_sum(parts), fold, strict=True
        )
        assert np.sum(np.stack(parts), axis=0) != fold


def _mixed_bucket(dtype=np.float32, seed=0):
    """A step's gradients as the trainer hands them over: a 1-element
    bias, an odd shape, an expert-sized tensor."""
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal(shape).astype(dtype)
        for shape in [(1,), (5, 3), (8, 256, 1024)]
    ]


class TestEchoGroup:
    def test_matches_in_process_all_reduce_bitwise(self):
        group = MpEchoGroup(4)
        try:
            arr = np.random.default_rng(0).standard_normal((5, 3))
            log, ref_log = CommLog(), CommLog()
            ref = all_reduce([arr] * 4, ref_log)[0]
            got = arr.copy()
            group.all_reduce_bucket([got], log=log)
            np.testing.assert_array_equal(got, ref, strict=True)
            assert log.records == ref_log.records
        finally:
            group.close()
        assert shm.leaked_segments(group.session) == []

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bucket_is_the_per_array_reference_in_place(self, backend, dtype):
        """One exchange over a mixed list == one reference all_reduce
        per array, written into the very arrays that went in; one
        CommLog record carrying the summed bytes."""
        world, scale = 4, 1.0 / 3.0  # a scale that rounds
        arrays = _mixed_bucket(dtype)
        ref_log, log = CommLog(), CommLog()
        refs = [all_reduce([a * scale] * world, ref_log)[0] for a in arrays]
        group = open_echo_group(world, backend)
        try:
            before = [(id(a), a.ctypes.data) for a in arrays]
            group.all_reduce_bucket(arrays, scale, log)
            assert [(id(a), a.ctypes.data) for a in arrays] == before
            for got, ref in zip(arrays, refs):
                np.testing.assert_array_equal(got, ref, strict=True)
            assert log.counts() == {"all_reduce": 1}
            assert log.total_bytes_per_rank() == ref_log.total_bytes_per_rank()
            # A larger bucket grows the window; a smaller one reuses it.
            for arrays in (
                [np.ones(3, dtype)],
                _mixed_bucket(dtype, 1) + _mixed_bucket(dtype, 2),
            ):
                refs = [all_reduce([a] * world)[0] for a in arrays]
                group.all_reduce_bucket(arrays)
                for got, ref in zip(arrays, refs):
                    np.testing.assert_array_equal(got, ref, strict=True)
            group.all_reduce_bucket([])  # a step without gradients: no exchange
            assert log.counts() == {"all_reduce": 1}
        finally:
            group.close()

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_one_bucket_one_dtype(self, backend):
        group = open_echo_group(2, backend)
        try:
            with pytest.raises(ValueError, match="one dtype"):
                group.all_reduce_bucket([np.ones(2, np.float32), np.ones(2, np.float64)])
        finally:
            group.close()

    def test_kill_faults_then_heal_recovers(self):
        group = MpEchoGroup(3, op_timeout_s=2.0)
        try:
            group.kill_rank(1)
            assert group.alive == [True, False, True]
            arr = np.ones(4)
            with pytest.raises(CollectiveFault):
                group.all_reduce_bucket([arr])
            np.testing.assert_array_equal(arr, np.ones(4))  # left unreduced
            assert group.heal() == [1]
            assert group.alive == [True, True, True]
            group.all_reduce_bucket([arr])
            np.testing.assert_array_equal(arr, 3.0 * np.ones(4))
        finally:
            group.close()
        assert shm.leaked_segments(group.session) == []

    @pytest.mark.parametrize("when", ["before", "mid_exchange", "after"])
    def test_heal_leaves_live_windows_alone(self, when):
        """SIGKILL a peer before it touched its window, while it copies
        and after it answered: the fault (if any) leaves the arrays
        unreduced, heal() unlinks the dead rank's window only, and the
        next exchange is right."""
        world = 3
        group = MpEchoGroup(world, op_timeout_s=2.0)
        try:
            warm = _mixed_bucket()
            expected = [all_reduce([a] * world)[0] for a in warm]
            if when != "before":
                group.all_reduce_bucket([a.copy() for a in warm])
            if when == "mid_exchange":
                # Stop rank 1 so the request finds it alive but silent,
                # then kill it while rank 0 is waiting on the reply.
                os.kill(group._procs[1].pid, signal.SIGSTOP)
                threading.Timer(0.3, group.kill_rank, args=(1,)).start()
            else:
                group.kill_rank(1)
            arrays = [a.copy() for a in warm]
            with pytest.raises(CollectiveFault):
                group.all_reduce_bucket(arrays)
            for got, sent in zip(arrays, warm):
                np.testing.assert_array_equal(got, sent, strict=True)
            live = {
                n
                for n in shm.leaked_segments(group.session)
                if not n.startswith(shm.window_prefix(group.session, 1))
            }
            assert group.heal() == [1]
            assert live <= set(shm.leaked_segments(group.session))
            group.all_reduce_bucket(arrays)
            for got, ref in zip(arrays, expected):
                np.testing.assert_array_equal(got, ref, strict=True)
        finally:
            group.close()
        assert shm.leaked_segments(group.session) == []

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_scheduled_faults_fire_in_the_exchange(self, backend):
        """The group runs every rank's fault step: a rank failure kills
        the peer it names (unranked: peer 1) and leaves the arrays
        unreduced (over processes, heal() respawns that peer); a
        corruption reaches the reduced bucket as one NaN; a delay really
        sleeps."""
        sched = FaultSchedule(
            [
                FaultEvent(RANK_FAILURE, step=0),
                FaultEvent(RANK_FAILURE, step=1, rank=2),
                FaultEvent(CORRUPT_PAYLOAD, step=2),
                FaultEvent(DELAY, step=3, delay_s=0.2),
            ]
        )
        group = open_echo_group(4, backend, op_timeout_s=2.0, schedule=sched)
        try:
            for step, healed in [(0, [1]), (1, [2])]:
                arr = np.ones(4)
                with pytest.raises(CollectiveFault, match=f"step={step}"):
                    group.all_reduce_bucket([arr], step=step)
                np.testing.assert_array_equal(arr, np.ones(4))
                assert group.heal() == (healed if backend == "mp" else [])
            arr = np.ones(4)
            group.all_reduce_bucket([arr], step=2)
            assert np.isnan(arr).sum() == 1
            t0 = time.perf_counter()
            group.all_reduce_bucket([arr], step=3)
            assert time.perf_counter() - t0 >= 0.2
            assert sched.pending == 0
        finally:
            group.close()

    def test_world_and_peer_rank_validated(self):
        with pytest.raises(ValueError):
            MpEchoGroup(1)
        group = MpEchoGroup(2)
        try:
            with pytest.raises(ValueError):
                group.kill_rank(0)
        finally:
            group.close()

    def test_opened_by_backend_name(self):
        """The trainer seam: one method, two transports, same bits."""
        arr = np.random.default_rng(1).standard_normal((7, 2)) / 4
        totals = {}
        for backend in ("sim", "mp"):
            group = open_echo_group(4, backend)
            try:
                totals[backend] = arr.copy()
                group.all_reduce_bucket([totals[backend]])
                assert group.heal() == []
            finally:
                group.close()
        np.testing.assert_array_equal(totals["sim"], totals["mp"], strict=True)
        with pytest.raises(ValueError, match="backend"):
            open_echo_group(2, "nccl")
