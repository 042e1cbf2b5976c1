"""Data parallelism is ``run_step`` + ``sync_gradients`` on every rank of a
real ProcessGroup: ranks stay synchronized, the two transports agree bit
for bit, and the trajectory matches one process that runs the same shards
as accumulation micro batches, to a stated tolerance."""

import numpy as np
import pytest

from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.distributed import CommLog, run_distributed
from repro.nn import TransformerLM
from repro.resilience import guardrails as gr
from repro.resilience.guardrails import NumericGuard
from repro.training import Adam, TrainerConfig
from repro.training.lr_schedule import ConstantLR
from repro.training.optim import clip_scale
from repro.training.step import StepState, run_step, sync_gradients

#: Data parallel vs one process accumulating the same shards.  Exact is
#: not promised: a rank's shard gradient is scaled by ``1 / world`` and
#: the ranks' buckets are summed, where accumulation scales each micro
#: batch's loss and adds the gradients up during backward — same value,
#: another rounding order, in float32.  Measured over the matrix below:
#: 0 at worlds 2 and 4 (scaling by a power of two is exact), ≤ 2e-6 at 3.
LARGE_BATCH_ATOL = 2e-5
LR = 1e-3
#: Below every step's gradient norm (1.1–2.5), so the clip is active.
CLIP = 0.05

_PILE = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
_DATA = LMDataset(_PILE.token_stream(4_000, 32), seq_len=16)


def _state(rows, ffn=32, grad_clip=0.0, accumulation=1):
    """A two-layer dMoE LM stepping ``rows``-row micro batches,
    ``accumulation`` of them per step (dropout off: the ranks draw none)."""
    model = TransformerLM(
        64, 16, 2, 2, 16, dropout_p=0.0, rng=0,
        ffn_factory=lambda i: dMoE(16, ffn, num_experts=4, block_size=8, rng=i),
    )
    config = TrainerConfig(
        global_batch=rows * accumulation, micro_batch=rows, grad_clip=grad_clip
    )
    return StepState(model, Adam(model.parameters(), lr=LR), ConstantLR(LR), config)


def _shards(step, world, n):
    """Step ``step``'s global batch of ``n`` rows, as ``world`` shards."""
    shard = n // world
    return [
        _DATA.batch(np.arange(step * n + r * shard, step * n + (r + 1) * shard))
        for r in range(world)
    ]


def _steps_on_rank(state, group, steps, n, log=None):
    """``steps`` steps of this rank's shard, gradients averaged over the
    group; returns the losses and pre-clip gradient norms."""
    losses, norms = [], []
    for step in range(steps):
        loss, norm, verdict = run_step(
            state, iter([_shards(step, group.world, n)[group.rank]]), step,
            sync=lambda: sync_gradients(state, group, log),
        )
        assert verdict == gr.OK
        losses.append(loss)
        norms.append(norm)
    return losses, norms


def _params(state):
    return [p.data.copy() for p in state.optimizer.params]


def run_data_parallel(world, backend, steps=5, grad_clip=0.0, n=12):
    """``steps`` data-parallel steps over equal shards of each step's
    global batch of ``n`` rows.  One ``(parameters, losses, CommLog)`` per
    rank — returned, because a forked rank's mutations never reach the
    parent."""

    def fn(group):
        state, log = _state(n // world, grad_clip=grad_clip), CommLog()
        losses, _ = _steps_on_rank(state, group, steps, n, log)
        return _params(state), losses, log

    return run_distributed(fn, world, backend=backend).values


def _single_process(world, steps=5, grad_clip=0.0, n=12):
    """One process stepping the same shards as ``world`` accumulation
    micro batches; returns its parameters and gradient norms."""
    state = _state(n // world, grad_clip=grad_clip, accumulation=world)
    norms = []
    for step in range(steps):
        _, norm, verdict = run_step(state, iter(_shards(step, world, n)), step)
        assert verdict == gr.OK
        norms.append(norm)
    return _params(state), norms


class TestTraining:
    def test_replicas_stay_bit_identical(self):
        ranks = run_data_parallel(4, "sim")
        assert ranks[0][1] != ranks[1][1]  # each rank trained its own shard
        for params, _, _ in ranks[1:]:
            for a, b in zip(ranks[0][0], params):
                np.testing.assert_array_equal(a, b, strict=True)

    def test_matches_single_process_large_batch(self):
        """DP over shards == one process accumulating them (the
        linearity of gradient averaging)."""
        params, _, _ = run_data_parallel(4, "sim", steps=4)[0]
        reference, _ = _single_process(4, steps=4)
        for p_single, p_dp in zip(reference, params):
            np.testing.assert_allclose(p_single, p_dp, atol=LARGE_BATCH_ATOL)

    def test_comm_volume_logged(self):
        _, _, log = run_data_parallel(2, "sim", steps=1)[0]
        # One all_reduce per step: every gradient in one bucket.
        assert log.counts() == {"all_reduce": 1}
        nbytes = sum(p.data.nbytes for p in _state(6).optimizer.params)
        assert log.total_bytes_per_rank() == nbytes  # ring volume at world 2

    def test_grad_clip_applied(self):
        """Gradients clipped to a near-zero norm meet Adam's ``eps``: the
        update is smaller than the unclipped one, but not zero."""
        before = _params(_state(6))
        clipped, _, _ = run_data_parallel(2, "sim", steps=1, grad_clip=1e-6)[0]
        free, _, _ = run_data_parallel(2, "sim", steps=1)[0]
        delta = lambda after: max(np.abs(b - a).max() for b, a in zip(before, after))
        assert 0 < delta(clipped) < delta(free)


@pytest.mark.parametrize("grad_clip", [0.0, CLIP], ids=["noclip", "clip"])
@pytest.mark.parametrize("world", [2, 3, 4])
def test_contract_on_both_transports(world, grad_clip):
    """ROADMAP item 4's contract on ``run_step``: non-power-of-two
    worlds included, on "sim" and "mp"."""
    sim = run_data_parallel(world, "sim", grad_clip=grad_clip)
    mp_ = run_data_parallel(world, "mp", grad_clip=grad_clip)
    reference, norms = _single_process(world, grad_clip=grad_clip)
    biting = [clip_scale(norm, grad_clip) != 1.0 for norm in norms]
    assert all(biting) if grad_clip else not any(biting)
    sizes = [p.data.nbytes for p in _state(12 // world).optimizer.params]
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
    """The same group first steps a small state, then one whose bucket
    does not fit the window the first left behind: the window moves to a
    larger segment mid-run and "mp" stays bitwise "sim"."""

    def fn(group):
        out = []
        for ffn in (32, 2048):  # 49 KB, then 2.2 MB of gradients
            state = _state(12 // world, ffn=ffn)
            losses, _ = _steps_on_rank(state, group, 2, 12)
            out.append((losses, _params(state)))
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
    all-reduce barrier, over gradients large enough (32 768 elements an
    expert weight) that NumPy drops the GIL inside its loops: each rank's
    norm is still its own, so the replicas stay bitwise "mp"'s, whose
    ranks share nothing."""
    world, n = 4, 16

    def fn(group):
        state = _state(n // world, ffn=512, grad_clip=1e-3)
        losses, norms = _steps_on_rank(state, group, 4, n)
        return losses, norms, _params(state)

    sim = run_distributed(fn, world, backend="sim").values
    mp_ = run_distributed(fn, world, backend="mp").values
    for (s_losses, s_norms, s_params), (m_losses, m_norms, m_params) in zip(sim, mp_):
        assert s_losses == m_losses
        assert s_norms == m_norms == mp_[0][1]
        for s, m, first in zip(s_params, m_params, mp_[0][2]):
            np.testing.assert_array_equal(s, m, strict=True)
            np.testing.assert_array_equal(s, first, strict=True)


@pytest.mark.parametrize("poisoned", ["ln_f", "tok_emb"])
@pytest.mark.parametrize("backend", ["sim", "mp"])
def test_a_rank_whose_loss_is_nonfinite_skips_with_its_group(backend, poisoned):
    """Guardrails on, two ranks: rank 1's loss is NaN at step 1 (the
    weight of its final layer norm, or of its token embeddings, is NaN
    for that step alone; NaN embeddings also send its routers to their
    fallback, which leaves no router gradient).  Its skip is the group's:
    both ranks skip step 1 without waiting out a collective's deadline,
    and both update at step 2 with equal replicas."""
    op_timeout_s = 5.0

    def fn(group):
        state = _state(6)
        state.guard = NumericGuard()
        gain = getattr(state.model, poisoned).weight
        verdicts = []
        for step in range(3):
            clean = gain.data
            if (group.rank, step) == (1, 1):
                gain.data = np.full_like(clean, np.nan)
            _, _, verdict = run_step(
                state, iter([_shards(step, group.world, 12)[group.rank]]), step,
                sync=lambda: sync_gradients(state, group),
            )
            gain.data = clean
            verdicts.append(verdict)
        return verdicts, _params(state)

    result = run_distributed(fn, 2, backend=backend, op_timeout_s=op_timeout_s)
    assert result.elapsed_s < op_timeout_s
    (v0, p0), (v1, p1) = result.values
    assert v0 == [gr.OK, gr.NONFINITE_GRAD, gr.OK]
    assert v1 == [gr.OK, gr.NONFINITE_LOSS, gr.OK]
    for a, b in zip(p0, p1):
        np.testing.assert_array_equal(a, b, strict=True)
