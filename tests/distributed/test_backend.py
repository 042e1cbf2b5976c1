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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.core import dMoE
from repro.distributed import (
    CommLog,
    DeviceMesh,
    ExpertParallelDMoE,
    WorkerFailure,
    all_reduce,
    run_distributed,
)
from repro.distributed import shm
from repro.distributed.backend import ProcessGroup, open_echo_group
from repro.distributed.mp_backend import MpEchoGroup
from repro.resilience.faults import (
    CORRUPT_PAYLOAD,
    DELAY,
    RANK_FAILURE,
    CollectiveFault,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
)
from tests.distributed.test_expert_parallel_backward import (
    _fixed_routing_reference,
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


def _make_ep(world, top_k=1, experts=12, retry_policy=None):
    layer = dMoE(
        16, 32, experts, top_k=top_k, block_size=4, rng=0,
        load_balance_coef=0.0,
    )
    layer.eval()
    mesh = DeviceMesh(world=world, expert_parallel=world)
    return layer, ExpertParallelDMoE(layer, mesh, retry_policy=retry_policy)


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
    layer, ep = _make_ep(world, top_k)
    if batches == "one_expert":
        layer.router.proj.weight.data[...] = 0.0
    rng = np.random.default_rng(seed)
    sizes = EP_BATCHES[batches](world)
    xs = [rng.standard_normal((n, 16)) for n in sizes]
    gs = [rng.standard_normal((n, 16)) for n in sizes]
    return layer, ep, xs, gs


def _assert_rank_results_equal(a, b):
    """Two ExpertParallelRankResults, bit for bit."""
    np.testing.assert_array_equal(a.output, b.output, strict=True)
    assert a.tokens_received == b.tokens_received
    assert a.comm_log.records == b.comm_log.records
    assert (a.input_grad is None) == (b.input_grad is None)
    if a.input_grad is not None:
        np.testing.assert_array_equal(a.input_grad, b.input_grad, strict=True)
        assert a.expert_grads.keys() == b.expert_grads.keys()
        for k in a.expert_grads:
            np.testing.assert_array_equal(
                a.expert_grads[k], b.expert_grads[k], err_msg=k, strict=True
            )


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
    """The expert-parallel conformance matrix: one rank body, two
    transports, the in-process drivers and the layer it shards."""

    @_ep_matrix
    def test_forward_rank_across_backends_and_reference(
        self, world, top_k, batches
    ):
        """mp == sim == in-process forward, bitwise; and all three match
        the single-process dMoE to float tolerance."""
        layer, ep, xs, _ = _ep_case(world, top_k, batches)

        def fn(group):
            return ep.forward_rank(group, xs[group.rank])

        sim = run_distributed(fn, world, backend="sim").values
        mp_ = run_distributed(fn, world, backend="mp").values
        ref = ep.forward(xs)
        for r in range(world):
            _assert_rank_results_equal(sim[r], mp_[r])
            np.testing.assert_array_equal(
                mp_[r].output, ref.outputs_per_rank[r], strict=True
            )
            assert mp_[r].input_grad is None
            assert mp_[r].comm_log.counts() == (
                {"all_to_all": 2} if world > 1 else {}
            )
        received = [v.tokens_received for v in mp_]
        assert received == ref.tokens_received_per_rank
        assert sum(received) == sum(len(x) for x in xs) * top_k
        if batches == "one_expert":
            assert received[1:] == [0] * (world - 1)

        single, _ = layer(Tensor(np.concatenate(xs), dtype=np.float64))
        np.testing.assert_allclose(
            np.concatenate([v.output for v in mp_]), single.data, atol=1e-9
        )

    @_ep_matrix
    def test_forward_backward_rank_across_backends(self, world, top_k, batches):
        """Forward output, input gradient, and the per-rank expert shard
        gradients are bit-identical between the two backends, and match
        the fixed-routing single-process reference."""
        layer, ep, xs, gs = _ep_case(world, top_k, batches, seed=7)

        def fn(group):
            return ep.forward_backward_rank(
                group, xs[group.rank], gs[group.rank]
            )

        sim = run_distributed(fn, world, backend="sim").values
        mp_ = run_distributed(fn, world, backend="mp").values
        for r in range(world):
            _assert_rank_results_equal(sim[r], mp_[r])
            assert mp_[r].comm_log.counts() == (
                {"all_to_all": 4} if world > 1 else {}
            )

        ref_out, ref_dx, ref_grads = _fixed_routing_reference(
            layer, np.concatenate(xs), np.concatenate(gs)
        )
        np.testing.assert_allclose(
            np.concatenate([v.output for v in mp_]), ref_out, atol=1e-9
        )
        np.testing.assert_allclose(
            np.concatenate([v.input_grad for v in mp_]), ref_dx, atol=1e-9
        )
        for name, ref in ref_grads.items():
            # Shard gradients concatenate, in rank order, to the full
            # parameter's: expert weights are never all-reduced.
            got = np.concatenate([v.expert_grads[name] for v in mp_])
            np.testing.assert_allclose(got, ref, atol=1e-9, err_msg=name)

    def test_plan_built_in_flight_receives_what_exchange_then_plan_does(self):
        """§5's dispatch written both ways over two forked ranks: the
        schedule the rank body runs — post the token sends, build the
        local plan from the already-arrived ids, then wait — against
        the serialized one it replaced (exchange, then plan).  Same
        plan, and the very tokens the peers bucketed for this rank; what
        the overlap hides is a wall clock, that it moves no byte is held
        here."""
        world = 2
        _, ep = _make_ep(world, top_k=2)
        rng = np.random.default_rng(12)
        xs = [rng.standard_normal((128, 16)) for _ in range(world)]

        def buckets(x):
            rows, cuts, local_ids, _ = ep._route_and_bucket(x)
            # One piece per destination, each > shm.INLINE_THRESHOLD.
            return np.split(x[rows], cuts), np.split(local_ids, cuts)

        def fn(group):
            send, send_ids = buckets(xs[group.rank])
            ids = np.concatenate(group.all_to_all(send_ids))
            pending = group.isend_all_to_all(send)
            plan, _ = ep._build_local_plan(ids)
            overlapped = pending.wait(), plan.gather_indices
            tokens = group.all_to_all(send)
            plan, _ = ep._build_local_plan(ids)
            return overlapped, (tokens, plan.gather_indices)

        sent = [buckets(x)[0] for x in xs]
        values = run_distributed(fn, world, backend="mp").values
        for rank, (overlapped, serial) in enumerate(values):
            _assert_values_equal(overlapped, serial, f"rank {rank}")
            _assert_values_equal(
                overlapped[0], [sent[src][rank] for src in range(world)]
            )

    def test_forward_backward_rank_matches_in_process(self):
        """The in-process driver is the same rank body on "sim": outputs
        and input gradients equal the forked ranks', and the shard
        gradients land in the layer's parameters."""
        world = 2
        layer, ep, xs, gs = _ep_case(world, 1, "even", seed=11)

        def fn(group):
            return ep.forward_backward_rank(
                group, xs[group.rank], gs[group.rank]
            )

        mp_ = run_distributed(fn, world, backend="mp").values
        layer.zero_grad()
        result, input_grads = ep.forward_backward(xs, gs)
        assert result.comm_log.counts() == {"all_to_all": 4}
        for r in range(world):
            np.testing.assert_array_equal(
                mp_[r].output, result.outputs_per_rank[r], strict=True
            )
            np.testing.assert_array_equal(
                mp_[r].input_grad, input_grads[r], strict=True
            )
        for name, p in layer.experts.named_parameters():
            np.testing.assert_array_equal(
                p.grad,
                np.concatenate([v.expert_grads[name] for v in mp_]),
                err_msg=name,
            )


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

    def _run(self, policy, faults, backend="mp"):
        _, ep = _make_ep(2, retry_policy=policy)
        rng = np.random.default_rng(3)
        xs = [rng.standard_normal((6, 16)) for _ in range(2)]
        fn = lambda g: ep.forward_backward_rank(g, xs[g.rank], xs[g.rank])
        return run_distributed(fn, 2, backend=backend, faults=faults).values

    def _corrupt(self, **kw):
        return [FaultEvent(CORRUPT_PAYLOAD, op="all_to_all", **kw)]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_corrupted_exchange_is_retried_by_every_rank(self, backend):
        clean = self._run(RetryPolicy(max_retries=3), None, backend)
        faulty = self._run(
            RetryPolicy(max_retries=3), self._corrupt(rank=0), backend
        )
        for c, f in zip(clean, faulty):
            # Same bits, and the same log: volume is per logical
            # exchange, not per transport attempt.
            _assert_rank_results_equal(c, f)
            assert (c.corrupt_detected, c.retries) == (0, 0)
        # Rank 1 received rank 0's NaN; both ranks re-issued, once.
        assert [f.corrupt_detected for f in faulty] == [0, 1]
        assert [f.retries for f in faulty] == [1, 1]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_without_a_policy_the_nan_comes_through(self, backend):
        faulty = self._run(None, self._corrupt(rank=0), backend)
        assert not np.isfinite(
            np.concatenate([f.output.reshape(-1) for f in faulty])
        ).all()
        assert [f.retries for f in faulty] == [0, 0]

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_event_with_nothing_to_corrupt_stays_armed(self, backend):
        """The rank body exchanges int64 expert ids before any token:
        an unranked event armed for all_to_all must not be spent on a
        payload with no float in it."""
        faulty = self._run(RetryPolicy(max_retries=3), self._corrupt(), backend)
        assert sum(f.corrupt_detected for f in faulty) == 1
        assert [f.retries for f in faulty] == [1, 1]

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
            group.all_reduce([got], log=log)
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
            group.all_reduce(arrays, scale, log)
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
                group.all_reduce(arrays)
                for got, ref in zip(arrays, refs):
                    np.testing.assert_array_equal(got, ref, strict=True)
            group.all_reduce([])  # a step without gradients: no exchange
            assert log.counts() == {"all_reduce": 1}
        finally:
            group.close()

    @pytest.mark.parametrize("backend", ["sim", "mp"])
    def test_one_bucket_one_dtype(self, backend):
        group = open_echo_group(2, backend)
        try:
            with pytest.raises(ValueError, match="one dtype"):
                group.all_reduce([np.ones(2, np.float32), np.ones(2, np.float64)])
        finally:
            group.close()

    def test_kill_faults_then_heal_recovers(self):
        group = MpEchoGroup(3, op_timeout_s=2.0)
        try:
            group.kill_rank(1)
            assert group.alive == [True, False, True]
            arr = np.ones(4)
            with pytest.raises(CollectiveFault):
                group.all_reduce([arr])
            np.testing.assert_array_equal(arr, np.ones(4))  # left unreduced
            assert group.heal() == [1]
            assert group.alive == [True, True, True]
            group.all_reduce([arr])
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
                group.all_reduce([a.copy() for a in warm])
            if when == "mid_exchange":
                # Stop rank 1 so the request finds it alive but silent,
                # then kill it while rank 0 is waiting on the reply.
                os.kill(group._procs[1].pid, signal.SIGSTOP)
                threading.Timer(0.3, group.kill_rank, args=(1,)).start()
            else:
                group.kill_rank(1)
            arrays = [a.copy() for a in warm]
            with pytest.raises(CollectiveFault):
                group.all_reduce(arrays)
            for got, sent in zip(arrays, warm):
                np.testing.assert_array_equal(got, sent, strict=True)
            live = {
                n
                for n in shm.leaked_segments(group.session)
                if not n.startswith(shm.window_prefix(group.session, 1))
            }
            assert group.heal() == [1]
            assert live <= set(shm.leaked_segments(group.session))
            group.all_reduce(arrays)
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
                    group.all_reduce([arr], step=step)
                np.testing.assert_array_equal(arr, np.ones(4))
                assert group.heal() == (healed if backend == "mp" else [])
            arr = np.ones(4)
            group.all_reduce([arr], step=2)
            assert np.isnan(arr).sum() == 1
            t0 = time.perf_counter()
            group.all_reduce([arr], step=3)
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
                group.all_reduce([totals[backend]])
                assert group.heal() == []
            finally:
                group.close()
        np.testing.assert_array_equal(totals["sim"], totals["mp"], strict=True)
        with pytest.raises(ValueError, match="backend"):
            open_echo_group(2, "nccl")
