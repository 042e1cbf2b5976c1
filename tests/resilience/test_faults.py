"""Fault-injection harness: schedules, retry policy, collective hooks."""

import numpy as np
import pytest

from repro.distributed.collectives import (
    all_reduce,
    all_to_all,
    get_fault_hook,
)
from repro.observability import registry
from repro.resilience import counters
from repro.resilience.faults import (
    CORRUPT_PAYLOAD,
    DELAY,
    NAN_GRAD,
    RANK_FAILURE,
    RETRIES_EXHAUSTED,
    TIMEOUT_EXHAUSTED,
    CollectiveFault,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RetryExhaustedError,
    RetryPolicy,
    inject_faults,
)


@pytest.fixture(autouse=True)
def _fresh_counters():
    registry().reset()
    yield
    registry().reset()


class TestFaultSchedule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor_strike")

    def test_match_consume_exhausts(self):
        sched = FaultSchedule([FaultEvent(RANK_FAILURE, step=3, count=2)])
        ev = sched.match({RANK_FAILURE}, step=3)
        assert ev is not None
        sched.consume(ev)
        sched.consume(ev)
        assert sched.match({RANK_FAILURE}, step=3) is None
        assert sched.pending == 0

    def test_step_and_op_filters(self):
        sched = FaultSchedule(
            [FaultEvent(RANK_FAILURE, step=5, op="all_reduce")]
        )
        assert sched.match({RANK_FAILURE}, step=4, op="all_reduce") is None
        assert sched.match({RANK_FAILURE}, step=5, op="all_to_all") is None
        assert sched.match({RANK_FAILURE}, step=5, op="all_reduce") is not None

    def test_wildcard_step_matches_any(self):
        sched = FaultSchedule([FaultEvent(NAN_GRAD)])
        assert sched.match({NAN_GRAD}, step=17) is not None

    def test_random_schedule_is_deterministic(self):
        a = FaultSchedule.random(7, 50, nan_grad_rate=0.2, rank_failure_rate=0.1)
        b = FaultSchedule.random(7, 50, nan_grad_rate=0.2, rank_failure_rate=0.1)
        assert [(e.kind, e.step, e.op) for e in a.events] == [
            (e.kind, e.step, e.op) for e in b.events
        ]
        c = FaultSchedule.random(8, 50, nan_grad_rate=0.2, rank_failure_rate=0.1)
        assert [(e.kind, e.step) for e in a.events] != [
            (e.kind, e.step) for e in c.events
        ]


class TestRetryPolicy:
    def test_recovers_after_transient_failures(self):
        policy = RetryPolicy(max_retries=3)
        failures = [0]

        def flaky(attempt):
            if failures[0] < 2:
                failures[0] += 1
                raise CollectiveFault("op", None, attempt)
            return "ok"

        assert policy.run(flaky) == "ok"
        assert policy.retries == 2
        assert policy.simulated_wait_s > 0

    def test_gives_up_after_max_retries(self):
        policy = RetryPolicy(max_retries=2)

        def dead(attempt):
            raise CollectiveFault("op", None, attempt)

        with pytest.raises(CollectiveFault):
            policy.run(dead)
        assert policy.gave_up == 1
        assert counters.get("collective_gave_up") == 1

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_retries=3, base_delay_s=1.0, backoff=2.0)
        failures = [0]

        def flaky(attempt):
            if failures[0] < 3:
                failures[0] += 1
                raise CollectiveFault("op", None, attempt)
            return None

        policy.run(flaky)
        assert policy.simulated_wait_s == pytest.approx(1.0 + 2.0 + 4.0)

    def test_timeout_bounds_total_wait(self):
        policy = RetryPolicy(max_retries=10, base_delay_s=1.0, timeout_s=2.5)

        def dead(attempt):
            raise CollectiveFault("op", None, attempt)

        with pytest.raises(CollectiveFault):
            policy.run(dead)
        assert policy.simulated_wait_s <= 2.5

    def test_final_retry_on_exact_budget_is_allowed(self):
        """Backoff waits 0.05 + 0.1 + 0.2 land exactly on a 0.35s budget
        — float accumulation (0.15000000000000002 + 0.2) must not
        spuriously reject the final retry."""
        policy = RetryPolicy(
            max_retries=10, base_delay_s=0.05, backoff=2.0, timeout_s=0.35
        )
        failures = [0]

        def flaky(attempt):
            if failures[0] < 3:
                failures[0] += 1
                raise CollectiveFault("op", None, attempt)
            return "ok"

        assert policy.run(flaky) == "ok"
        assert policy.retries == 3
        assert policy.gave_up == 0
        assert policy.simulated_wait_s == pytest.approx(0.35)

    def test_retries_exhausted_reason(self):
        policy = RetryPolicy(max_retries=2, timeout_s=1e9)

        def dead(attempt):
            raise CollectiveFault("op", 7, attempt)

        with pytest.raises(RetryExhaustedError) as exc_info:
            policy.run(dead)
        err = exc_info.value
        assert err.reason == RETRIES_EXHAUSTED
        assert "retry budget exhausted" in str(err)
        assert isinstance(err.__cause__, CollectiveFault)
        assert err.op == "op" and err.step == 7

    def test_timeout_exhausted_reason_not_mistyped_as_retries(self):
        """Running out of time budget with retries to spare must report
        timeout exhaustion, not retries exhaustion."""
        policy = RetryPolicy(max_retries=50, base_delay_s=1.0, timeout_s=2.5)

        def dead(attempt):
            raise CollectiveFault("op", None, attempt)

        with pytest.raises(RetryExhaustedError) as exc_info:
            policy.run(dead)
        err = exc_info.value
        assert err.reason == TIMEOUT_EXHAUSTED
        assert "timeout budget exhausted" in str(err)
        assert err.waited_s == pytest.approx(1.0)  # one 1s wait happened

    def test_exhaustion_error_is_a_collective_fault(self):
        """Existing handlers catch CollectiveFault; the typed error must
        keep flowing through them."""
        policy = RetryPolicy(max_retries=0)

        def dead(attempt):
            raise CollectiveFault("op", None, attempt)

        with pytest.raises(CollectiveFault):
            policy.run(dead)


class TestCollectiveInjection:
    def test_rank_failure_raises_without_policy(self):
        injector = FaultInjector(
            FaultSchedule([FaultEvent(RANK_FAILURE, op="all_reduce")])
        )
        shards = [np.ones(4), np.ones(4)]
        with inject_faults(injector):
            with pytest.raises(CollectiveFault):
                all_reduce(shards)
        # Hook uninstalled on exit; collective works again.
        assert get_fault_hook() is None
        out = all_reduce(shards)
        np.testing.assert_array_equal(out[0], 2 * np.ones(4))

    def test_transient_failure_recovered_by_policy(self):
        policy = RetryPolicy(max_retries=3)
        injector = FaultInjector(
            FaultSchedule([FaultEvent(RANK_FAILURE, op="all_reduce", count=2)]),
            policy=policy,
        )
        shards = [np.full(4, 1.5), np.full(4, 2.5)]
        with inject_faults(injector):
            out = all_reduce(shards)
        np.testing.assert_array_equal(out[0], np.full(4, 4.0))
        assert policy.retries == 2
        assert counters.get("collective_retries") == 2

    def test_corrupt_payload_plants_nan_in_copy(self):
        injector = FaultInjector(
            FaultSchedule([FaultEvent(CORRUPT_PAYLOAD, op="all_to_all")])
        )
        buffers = [
            [np.ones((2, 3)), np.ones((2, 3))],
            [np.ones((2, 3)), np.ones((2, 3))],
        ]
        with inject_faults(injector):
            received = all_to_all(buffers)
        flat = np.concatenate([a.reshape(-1) for row in received for a in row])
        assert np.isnan(flat).sum() == 1
        # Caller buffers were never mutated.
        for row in buffers:
            for arr in row:
                assert np.isfinite(arr).all()

    def test_corrupt_payload_with_no_float_stays_armed(self):
        """An exchange of integer ids has nothing to plant a NaN in: the
        event must wait for a payload that does, not be spent."""
        injector = FaultInjector(
            FaultSchedule([FaultEvent(CORRUPT_PAYLOAD, op="all_to_all")])
        )
        with inject_faults(injector):
            ids = all_to_all([[np.arange(3)] * 2] * 2)
            assert injector.schedule.pending == 1
            tokens = all_to_all([[np.ones(3)] * 2] * 2)
        assert injector.schedule.pending == 0
        assert all((a == np.arange(3)).all() for row in ids for a in row)
        assert np.isnan(np.concatenate([a for row in tokens for a in row])).sum() == 1
        assert counters.get("injected_corrupt_payload") == 1

    def test_delay_accrues_simulated_latency(self):
        injector = FaultInjector(
            FaultSchedule([FaultEvent(DELAY, op="all_reduce", delay_s=0.25)])
        )
        with inject_faults(injector):
            out = all_reduce([np.ones(2), np.ones(2)])
        np.testing.assert_array_equal(out[0], 2 * np.ones(2))
        assert injector.simulated_delay_s == pytest.approx(0.25)


class TestGradientInjection:
    def test_nan_grad_fires_once_at_step(self):
        from repro.nn import Linear

        layer = Linear(3, 3, rng=0)
        for p in layer.parameters():
            p.grad = np.zeros_like(p.data)
        injector = FaultInjector(FaultSchedule([FaultEvent(NAN_GRAD, step=4)]))
        assert not injector.corrupt_gradients(3, layer.parameters())
        assert injector.corrupt_gradients(4, list(layer.parameters()))
        grads = np.concatenate(
            [p.grad.reshape(-1) for p in layer.parameters()]
        )
        assert np.isnan(grads).sum() == 1
        # Exhausted: does not fire again.
        assert not injector.corrupt_gradients(4, list(layer.parameters()))


class TestExpertParallelRecovery:
    def _setup(self):
        from repro.core import dMoE
        from repro.distributed.expert_parallel import ExpertParallelDMoE
        from repro.distributed.mesh import DeviceMesh

        layer = dMoE(16, 32, num_experts=4, block_size=8, rng=0)
        mesh = DeviceMesh(expert_parallel=2)
        rng = np.random.default_rng(3)
        x = [
            rng.standard_normal((6, 16)).astype(np.float64) for _ in range(2)
        ]
        return layer, mesh, x

    def test_corrupted_exchange_is_retried_to_clean_result(self):
        from repro.distributed.expert_parallel import ExpertParallelDMoE

        layer, mesh, x = self._setup()
        clean = ExpertParallelDMoE(layer, mesh).forward(x)

        policy = RetryPolicy(max_retries=3)
        ep = ExpertParallelDMoE(layer, mesh, retry_policy=policy)
        injector = FaultInjector(
            FaultSchedule([FaultEvent(CORRUPT_PAYLOAD, op="all_to_all")])
        )
        with inject_faults(injector):
            recovered = ep.forward(x)
        for a, b in zip(clean.outputs_per_rank, recovered.outputs_per_rank):
            np.testing.assert_array_equal(a, b)
        assert counters.get("ep_corrupt_payload_detected") >= 1
        assert policy.retries >= 1

    def test_retry_does_not_double_count_comm_volume(self):
        """Comm volume is per *logical* exchange: a retried all-to-all
        must log exactly the same records as a clean run."""
        from repro.distributed.expert_parallel import ExpertParallelDMoE

        layer, mesh, x = self._setup()
        clean = ExpertParallelDMoE(
            layer, mesh, retry_policy=RetryPolicy(max_retries=3)
        ).forward(x)

        policy = RetryPolicy(max_retries=3)
        ep = ExpertParallelDMoE(layer, mesh, retry_policy=policy)
        injector = FaultInjector(
            FaultSchedule(
                [FaultEvent(CORRUPT_PAYLOAD, op="all_to_all", count=2)]
            )
        )
        with inject_faults(injector):
            faulty = ep.forward(x)
        assert policy.retries >= 1  # retries actually happened

        clean_log, faulty_log = clean.comm_log, faulty.comm_log
        assert faulty_log.counts() == clean_log.counts()
        assert faulty_log.total_bytes_per_rank(
            "all_to_all"
        ) == clean_log.total_bytes_per_rank("all_to_all")
        assert [r.bytes_by_rank for r in faulty_log.records] == [
            r.bytes_by_rank for r in clean_log.records
        ]

    def test_unvalidated_path_lets_corruption_through(self):
        """Without a retry policy the legacy fast path is unchanged —
        corruption propagates (that is what the guardrails are for)."""
        from repro.distributed.expert_parallel import ExpertParallelDMoE

        layer, mesh, x = self._setup()
        ep = ExpertParallelDMoE(layer, mesh)
        injector = FaultInjector(
            FaultSchedule([FaultEvent(CORRUPT_PAYLOAD, op="all_to_all")])
        )
        with inject_faults(injector):
            result = ep.forward(x)
        flat = np.concatenate(
            [o.reshape(-1) for o in result.outputs_per_rank]
        )
        assert not np.isfinite(flat).all()
