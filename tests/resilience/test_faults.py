"""Fault-injection harness: schedules, retry policy, and collective
faults delivered into the process group that runs the collective."""

import numpy as np
import pytest

from repro.distributed import WorkerFailure, run_distributed
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


def _sim(fn, faults, world=2):
    return run_distributed(fn, world, backend="sim", faults=faults)


class TestCollectiveInjection:
    def test_rank_failure_raises_without_policy(self):
        def fn(group):
            return group.all_reduce(np.ones(4))

        with pytest.raises(WorkerFailure, match="CollectiveFault"):
            _sim(fn, [FaultEvent(RANK_FAILURE, op="all_reduce")])
        assert counters.get("injected_rank_failure") == 1
        # The schedule belonged to that run; the next one is clean.
        for out in _sim(fn, None).values:
            np.testing.assert_array_equal(out, 2 * np.ones(4))

    def test_transient_failure_recovered_by_policy(self):
        """A rank retries the way the expert-parallel body does: every
        rank agrees through a tiny integer all_reduce that a payload
        came back bad, and all re-issue."""

        def fn(group):
            policy = RetryPolicy(max_retries=3)

            def attempt(k):
                total = group.all_reduce(np.full(4, 1.5 + group.rank))
                if group.all_reduce(np.array([int(np.isnan(total).any())]))[0]:
                    raise CollectiveFault("all_reduce", None, k)
                return total

            return policy.run(attempt), policy.retries

        res = _sim(fn, [FaultEvent(CORRUPT_PAYLOAD, op="all_reduce", count=2)])
        for total, retries in res.values:
            np.testing.assert_array_equal(total, np.full(4, 4.0))
            assert retries == 2
        assert counters.get("collective_retries") == 4  # two per rank
        assert counters.get("injected_corrupt_payload") == 2

    def test_corrupt_payload_plants_nan_in_copy(self):
        def fn(group):
            send = [np.ones((2, 3)) for _ in range(group.world)]
            received = group.all_to_all(send)
            return received, all(np.isfinite(a).all() for a in send)

        res = _sim(fn, [FaultEvent(CORRUPT_PAYLOAD, op="all_to_all")])
        flat = np.concatenate(
            [a.reshape(-1) for received, _ in res.values for a in received]
        )
        assert np.isnan(flat).sum() == 1
        # Caller buffers were never mutated.
        assert all(untouched for _, untouched in res.values)

    def test_corrupt_payload_with_no_float_stays_armed(self):
        """An exchange of integer ids has nothing to plant a NaN in: the
        event must wait for a payload that does, not be spent."""
        event = FaultEvent(CORRUPT_PAYLOAD, op="all_to_all")

        def fn(group):
            ids = group.all_to_all([np.arange(3)] * 2)
            armed = event.fired == 0
            group.barrier()  # every rank has read `armed`
            return ids, armed, group.all_to_all([np.ones(3)] * 2)

        res = _sim(fn, [event])
        assert event.fired == 1
        assert all(armed for _, armed, _ in res.values)
        assert all((a == np.arange(3)).all() for ids, _, _ in res.values for a in ids)
        tokens = np.concatenate([a for _, _, t in res.values for a in t])
        assert np.isnan(tokens).sum() == 1
        assert counters.get("injected_corrupt_payload") == 1

    def test_delay_accrues_simulated_latency(self):
        """A delayed rank-thread really sleeps; its peer waits for it."""

        def fn(group):
            return group.all_reduce(np.ones(2))

        res = _sim(fn, [FaultEvent(DELAY, op="all_reduce", rank=1, delay_s=0.25)])
        for out in res.values:
            np.testing.assert_array_equal(out, 2 * np.ones(2))
        assert res.wait_s_per_rank[0] >= 0.2
        assert counters.get("injected_delay") == 1

    def test_peer_of_a_dead_rank_names_the_collective_and_step(self):
        """Every rank's failure names the collective and step it died
        in — the rank that failed and the peer whose barrier broke."""

        def fn(group):
            return group.all_reduce(np.ones(2))

        with pytest.raises(WorkerFailure) as ei:
            run_distributed(
                fn,
                2,
                backend="sim",
                faults=[FaultEvent(RANK_FAILURE, op="all_reduce", step=3)],
                step=3,
            )
        assert ei.value.failed_ranks == [0, 1]
        per_rank = str(ei.value).split(": ", 1)[1].split("; ")
        assert len(per_rank) == 2
        for detail in per_rank:
            assert "fault in collective 'all_reduce' (step=3" in detail


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

        layer = dMoE(16, 32, num_experts=4, block_size=8, rng=0)
        rng = np.random.default_rng(3)
        x = [
            rng.standard_normal((6, 16)).astype(np.float64) for _ in range(2)
        ]
        return layer, x

    @staticmethod
    def _forward(layer, x, faults, policy=None):
        from tests.distributed.ep_ranks import ep_rank

        return _sim(ep_rank(layer, x, retry_policy=policy), faults).values

    def test_corrupted_exchange_is_retried_to_clean_result(self):
        layer, x = self._setup()
        clean = self._forward(layer, x, None)

        policy = RetryPolicy(max_retries=3)
        recovered = self._forward(
            layer, x, [FaultEvent(CORRUPT_PAYLOAD, op="all_to_all")], policy
        )
        for a, b in zip(clean, recovered):
            np.testing.assert_array_equal(a["output"], b["output"])
        assert counters.get("ep_corrupt_payload_detected") >= 1
        assert policy.retries >= 1

    def test_retry_does_not_double_count_comm_volume(self):
        """Comm volume is per *logical* exchange: a retried all-to-all
        must log exactly the same records as a clean run."""
        layer, x = self._setup()
        clean = self._forward(layer, x, None, RetryPolicy(max_retries=3))

        policy = RetryPolicy(max_retries=3)
        faulty = self._forward(
            layer, x, [FaultEvent(CORRUPT_PAYLOAD, op="all_to_all", count=2)],
            policy,
        )
        assert policy.retries >= 1  # retries actually happened
        for c, f in zip(clean, faulty):
            assert f["comm_log"].records == c["comm_log"].records

    def test_unvalidated_path_lets_corruption_through(self):
        """Without a retry policy the legacy fast path is unchanged —
        corruption propagates (that is what the guardrails are for)."""
        layer, x = self._setup()
        result = self._forward(
            layer, x, [FaultEvent(CORRUPT_PAYLOAD, op="all_to_all")]
        )
        flat = np.concatenate([r["output"].reshape(-1) for r in result])
        assert not np.isfinite(flat).all()
