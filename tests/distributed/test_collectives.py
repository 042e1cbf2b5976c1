import numpy as np
import pytest

from repro.distributed import CommLog, all_reduce, all_to_all


class TestAllReduce:
    def test_sums_shards(self, rng):
        shards = [rng.standard_normal((3, 2)) for _ in range(4)]
        out = all_reduce(shards)
        want = sum(shards)
        for o in out:
            np.testing.assert_allclose(o, want)

    def test_logs_ring_volume(self, rng):
        log = CommLog()
        shards = [np.zeros(1000, dtype=np.float32) for _ in range(4)]
        all_reduce(shards, log)
        assert log.records[0].op == "all_reduce"
        assert log.records[0].bytes_sent_per_rank == pytest.approx(
            2 * 3 / 4 * 4000
        )

    def test_single_rank_no_log(self):
        log = CommLog()
        all_reduce([np.zeros(3)], log)
        assert log.records == []


class TestAllToAll:
    def test_transposes_buffers(self, rng):
        world = 3
        buffers = [
            [np.full((1,), 10 * src + dst) for dst in range(world)]
            for src in range(world)
        ]
        out = all_to_all(buffers)
        for dst in range(world):
            for src in range(world):
                assert out[dst][src][0] == 10 * src + dst

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            all_to_all([[np.zeros(1)], [np.zeros(1), np.zeros(1)]])

    def test_logs_off_diagonal_bytes(self):
        log = CommLog()
        world = 2
        buffers = [
            [np.zeros(10, dtype=np.float64) for _ in range(world)]
            for _ in range(world)
        ]
        all_to_all(buffers, log)
        assert log.total_bytes_per_rank("all_to_all") == 80  # one off-diag buffer

    def test_skewed_routing_logs_true_per_rank_bytes(self):
        """Skew must not inflate the mean: rank 0 sends 800B, rank 1
        sends 80B — per-rank mean is 440, the straggler field keeps the
        max, and the per-source breakdown is recorded exactly."""
        log = CommLog()
        buffers = [
            [np.zeros(1, dtype=np.float64), np.zeros(100, dtype=np.float64)],
            [np.zeros(10, dtype=np.float64), np.zeros(1, dtype=np.float64)],
        ]
        all_to_all(buffers, log)
        rec = log.records[0]
        assert rec.bytes_by_rank == [800.0, 80.0]
        assert rec.bytes_sent_per_rank == pytest.approx(440.0)
        assert rec.max_bytes_sent == 800.0
        assert log.max_bytes_per_rank("all_to_all") == 800.0

    def test_symmetric_records_default_max_to_mean(self):
        log = CommLog()
        all_reduce([np.zeros(10), np.zeros(10)], log)
        rec = log.records[0]
        assert rec.bytes_by_rank is None
        assert rec.max_bytes_sent == rec.bytes_sent_per_rank

    def test_copies_are_independent(self):
        buffers = [[np.zeros(2)] * 2] * 2
        out = all_to_all(buffers)
        out[0][0][...] = 5
        assert buffers[0][0][0] == 0


class TestCommLog:
    def test_counts_and_totals(self):
        log = CommLog()
        log.log("all_reduce", 8, 100.0)
        log.log("all_to_all", 8, 50.0)
        log.log("all_to_all", 8, 25.0)
        assert log.counts() == {"all_reduce": 1, "all_to_all": 2}
        assert log.total_bytes_per_rank() == 175.0
        assert log.total_bytes_per_rank("all_to_all") == 75.0
