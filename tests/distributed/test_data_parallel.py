"""Data parallelism over a real ProcessGroup: ranks stay synchronized,
the two transports agree bit for bit, and the trajectory matches
single-process large-batch training to a stated tolerance."""

import numpy as np
import pytest

from repro.autograd import Tensor, cross_entropy
from repro.distributed import CommLog, data_parallel_step, run_distributed
from repro.nn import Linear, Sequential
from repro.training import Adam, clip_grad_norm

#: Data parallel vs one big batch.  Exact is not promised: a rank
#: averages its shard and the all-reduce averages the ranks, where the
#: big batch sums every row in one reduction — same value, another
#: summation order, in float32.  Measured over the matrix below: ≤ 2e-7.
LARGE_BATCH_ATOL = 2e-5


def _model(seed=0):
    return Sequential(Linear(6, 12, rng=seed), Linear(12, 4, rng=seed + 1))


def _batch(n=12, seed=42):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 6)).astype(np.float32), rng.integers(0, 4, n)


def run_data_parallel(world, backend, steps=5, grad_clip=0.0, n=12):
    """``steps`` data-parallel steps over equal shards of one global
    batch.  One ``(parameters, losses, CommLog)`` per rank — returned,
    because a forked rank's mutations never reach the parent."""
    x, y = _batch(n)
    shard = n // world

    def loss_fn(model, rank):
        rows = slice(rank * shard, (rank + 1) * shard)
        return cross_entropy(model(Tensor(x[rows])), y[rows])

    def fn(group):
        model, log = _model(), CommLog()
        opt = Adam(model.parameters(), lr=1e-2)
        losses = [
            data_parallel_step(group, model, opt, loss_fn, grad_clip, log)
            for _ in range(steps)
        ]
        return [p.data.copy() for p in model.parameters()], losses, log

    return run_distributed(fn, world, backend=backend).values


def _single_process(steps=5, grad_clip=0.0, n=12):
    x, y = _batch(n)
    model = _model()
    opt = Adam(model.parameters(), lr=1e-2)
    for _ in range(steps):
        opt.zero_grad()
        cross_entropy(model(Tensor(x)), y).backward()
        if grad_clip > 0:
            clip_grad_norm(opt.params, grad_clip)
        opt.step()
    return [p.data for p in model.parameters()]


class TestTraining:
    def test_replicas_stay_bit_identical(self):
        ranks = run_data_parallel(4, "sim")
        for params, _, _ in ranks[1:]:
            for a, b in zip(ranks[0][0], params):
                np.testing.assert_array_equal(a, b, strict=True)

    def test_matches_single_process_large_batch(self):
        """DP over shards == single process on the full batch (the
        linearity of gradient averaging)."""
        params, _, _ = run_data_parallel(4, "sim", steps=4)[0]
        for p_single, p_dp in zip(_single_process(steps=4), params):
            np.testing.assert_allclose(p_single, p_dp, atol=LARGE_BATCH_ATOL)

    def test_comm_volume_logged(self):
        _, _, log = run_data_parallel(2, "sim", steps=1)[0]
        # One all_reduce per step: every gradient in one bucket.
        assert log.counts() == {"all_reduce": 1}
        nbytes = sum(p.data.nbytes for p in _model().parameters())
        assert log.total_bytes_per_rank() == nbytes  # ring volume at world 2

    def test_grad_clip_applied(self):
        before = [p.data.copy() for p in _model().parameters()]
        after, _, _ = run_data_parallel(2, "sim", steps=1, grad_clip=1e-6)[0]
        # Clipped to near-zero norm, the update is tiny but nonzero.
        deltas = [np.abs(b - a).max() for b, a in zip(before, after)]
        assert 0 < max(deltas) < 1e-2


#: Below the first step's gradient norm (0.13), so the clip is active.
@pytest.mark.parametrize("grad_clip", [0.0, 0.05], ids=["noclip", "clip"])
@pytest.mark.parametrize("world", [2, 3, 4])
def test_contract_on_both_transports(world, grad_clip):
    """ROADMAP item 3's contract at the size a per-rank step can reach:
    non-power-of-two worlds included, on "sim" and "mp"."""
    sim = run_data_parallel(world, "sim", grad_clip=grad_clip)
    mp_ = run_data_parallel(world, "mp", grad_clip=grad_clip)
    reference = _single_process(grad_clip=grad_clip)
    sizes = [p.data.nbytes for p in _model().parameters()]
    for (s_params, s_losses, s_log), (m_params, m_losses, m_log) in zip(sim, mp_):
        assert s_losses == m_losses
        assert s_log.records == m_log.records
        for s, m, first, ref in zip(s_params, m_params, sim[0][0], reference):
            np.testing.assert_array_equal(s, m, strict=True)  # sim = mp
            np.testing.assert_array_equal(s, first, strict=True)  # rank = rank 0
            np.testing.assert_allclose(s, ref, atol=LARGE_BATCH_ATOL)
        # One ring-volume all_reduce per step, over every parameter.
        ring = 2.0 * (world - 1) / world
        assert [r.bytes_sent_per_rank for r in m_log.records] == [
            ring * sum(sizes)
        ] * 5
        assert m_log.counts() == {"all_reduce": 5}


@pytest.mark.parametrize("world", [2, 3])
def test_window_grows_between_steps(world):
    """The same group first steps a small model, then one whose bucket
    does not fit the window the first left behind: the window moves to a
    larger segment mid-run and "mp" stays bitwise "sim"."""
    x, y = _batch(12)
    shard = 12 // world

    def loss_fn(model, rank):
        rows = slice(rank * shard, (rank + 1) * shard)
        return cross_entropy(model(Tensor(x[rows])), y[rows])

    def fn(group):
        out = []
        for hidden in (12, 4096):  # 0.5 KB, then 160 KB of gradients
            model = Sequential(Linear(6, hidden, rng=0), Linear(hidden, 4, rng=1))
            opt = Adam(model.parameters(), lr=1e-2)
            losses = [
                data_parallel_step(group, model, opt, loss_fn) for _ in range(2)
            ]
            out.append((losses, [p.data.copy() for p in model.parameters()]))
        return out

    sim = run_distributed(fn, world, backend="sim").values
    mp_ = run_distributed(fn, world, backend="mp").values
    for s_rank, m_rank in zip(sim, mp_):
        for (s_losses, s_params), (m_losses, m_params) in zip(s_rank, m_rank):
            assert s_losses == m_losses
            for s, m in zip(s_params, m_params):
                np.testing.assert_array_equal(s, m, strict=True)


def test_clipped_ranks_agree_at_a_size_numpy_threads():
    """``grad_norm`` on every "sim" rank at once, right after the same
    all-reduce barrier, over gradients large enough (3 072 elements) that
    NumPy drops the GIL inside its loops: each rank's norm is still its
    own, so the replicas stay bitwise "mp"'s, whose ranks share nothing."""
    x, y = _batch(16)
    world, shard = 4, 4

    def loss_fn(model, rank):
        rows = slice(rank * shard, (rank + 1) * shard)
        return cross_entropy(model(Tensor(x[rows])), y[rows])

    def fn(group):
        model = Sequential(Linear(6, 512, rng=0), Linear(512, 4, rng=1))
        opt = Adam(model.parameters(), lr=1e-2)
        losses = [
            data_parallel_step(group, model, opt, loss_fn, grad_clip=1e-3)
            for _ in range(4)
        ]
        return losses, [p.data.copy() for p in model.parameters()]

    sim = run_distributed(fn, world, backend="sim").values
    mp_ = run_distributed(fn, world, backend="mp").values
    for (s_losses, s_params), (m_losses, m_params) in zip(sim, mp_):
        assert s_losses == m_losses
        for s, m, first in zip(s_params, m_params, mp_[0][1]):
            np.testing.assert_array_equal(s, m, strict=True)
            np.testing.assert_array_equal(s, first, strict=True)
