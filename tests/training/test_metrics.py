import numpy as np
import pytest

from repro.training import (
    History,
    TrainingRecord,
    pareto_frontier,
    time_to_loss,
)


class TestHistory:
    def test_accessors(self):
        h = History()
        h.log(TrainingRecord(step=0, tokens=100, loss=2.0))
        h.log(TrainingRecord(step=1, tokens=200, loss=1.5, val_loss=1.8))
        np.testing.assert_array_equal(h.steps, [0, 1])
        np.testing.assert_array_equal(h.losses, [2.0, 1.5])
        s, v = h.val_points
        np.testing.assert_array_equal(s, [1])
        assert h.final_val_loss() == 1.8

    def test_final_val_none_when_absent(self):
        h = History()
        h.log(TrainingRecord(0, 1, 2.0))
        assert h.final_val_loss() is None

    def test_smoothing_reduces_variance(self, rng):
        h = History()
        noise = 2.0 + rng.standard_normal(200) * 0.5
        for i, l in enumerate(noise):
            h.log(TrainingRecord(i, i, float(l)))
        assert h.smoothed_losses(0.05).std() < h.losses.std() / 2

    def test_empty_history_dtypes(self):
        # An untyped np.array([]) defaults to float64; steps must stay
        # integral even with zero records so downstream indexing works.
        h = History()
        assert h.steps.dtype == np.int64
        assert h.losses.dtype == np.float64
        assert h.step_times.dtype == np.float64
        assert len(h.steps) == len(h.losses) == len(h.step_times) == 0

    def test_step_times_nan_where_untimed(self):
        h = History()
        h.log(TrainingRecord(step=0, tokens=1, loss=2.0))
        h.log(TrainingRecord(step=1, tokens=2, loss=1.5, step_time=0.25))
        st = h.step_times
        assert np.isnan(st[0])
        assert st[1] == 0.25

    def test_phase_times_round_trip(self):
        phases = {"forward": 0.1, "backward": 0.2}
        r = TrainingRecord(step=0, tokens=1, loss=1.0, phase_times=phases)
        assert r.phase_times == phases
        assert TrainingRecord(step=0, tokens=1, loss=1.0).phase_times is None


class TestTimeToLoss:
    def test_interpolates(self):
        t = time_to_loss([0, 10, 20], [3.0, 2.0, 1.0], 1.5)
        assert t == pytest.approx(15.0)

    def test_exact_hit(self):
        assert time_to_loss([0, 10], [3.0, 2.0], 3.0) == 0.0

    def test_never_reached(self):
        assert time_to_loss([0, 10], [3.0, 2.0], 1.0) is None

    def test_non_monotone_uses_running_min(self):
        t = time_to_loss([0, 10, 20, 30], [3.0, 1.9, 2.5, 1.0], 2.0)
        assert t is not None and t < 10.1

    def test_empty(self):
        assert time_to_loss([], [], 1.0) is None

    def test_reached_at_exact_first_record(self):
        # Target already satisfied by the very first point: return
        # times[0] without interpolating against a missing predecessor.
        assert time_to_loss([5.0, 10.0], [2.0, 1.0], 2.5) == 5.0
        assert time_to_loss([5.0], [2.0], 2.0) == 5.0

    def test_flat_segment_no_division_by_zero(self):
        # l0 == l1 on the straddling segment (plateau created by the
        # running minimum): must return the later time, not NaN/inf.
        t = time_to_loss([0, 10, 20], [3.0, 3.0, 1.0], 3.0)
        assert t == 0.0
        t = time_to_loss([0, 10, 20, 30], [3.0, 2.0, 2.5, 2.0], 2.0)
        assert t == pytest.approx(10.0)

    def test_noisy_losses_monotone_hit_time(self):
        # A later noisy spike above the target must not delay the hit.
        times = [0, 1, 2, 3, 4]
        losses = [3.0, 1.8, 2.6, 2.4, 1.7]
        t = time_to_loss(times, losses, 2.0)
        assert t is not None
        assert t <= 1.0 + 1e-12


class TestParetoFrontier:
    def test_dominated_points_removed(self):
        pts = [(1.0, 3.0), (2.0, 2.0), (3.0, 2.5), (4.0, 1.0)]
        f = pareto_frontier(pts)
        assert (3.0, 2.5) not in f
        assert f == [(1.0, 3.0), (2.0, 2.0), (4.0, 1.0)]

    def test_single_point(self):
        assert pareto_frontier([(1.0, 1.0)]) == [(1.0, 1.0)]

    def test_tie_in_loss_keeps_faster_point(self):
        # Equal loss at two times: only the faster one is on the
        # frontier (strict < comparison).
        f = pareto_frontier([(1.0, 2.0), (3.0, 2.0)])
        assert f == [(1.0, 2.0)]

    def test_tie_in_time_keeps_better_loss(self):
        # Same time, different losses: sorted order puts the lower loss
        # second, so the frontier keeps both sorted entries only if each
        # improves; the worse-loss twin is dominated.
        f = pareto_frontier([(1.0, 3.0), (1.0, 2.0)])
        assert (1.0, 2.0) in f
        assert len([p for p in f if p[0] == 1.0]) <= 2

    def test_duplicate_points(self):
        f = pareto_frontier([(1.0, 1.0), (1.0, 1.0)])
        assert f == [(1.0, 1.0)]

    def test_empty(self):
        assert pareto_frontier([]) == []
