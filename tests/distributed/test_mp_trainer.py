"""The trainer seams over real processes.

``TrainerConfig(dist_backend="mp")`` routes the per-step gradient
all-reduce through persistent forked echo workers; the training
trajectory must stay bit-identical to the ``"sim"`` reference, a
scheduled rank failure must be a *real* SIGKILL whose recovery (skip
the step, heal the group) matches the simulated fault path bit for
bit, and a run interrupted after the chaos must resume from a
checkpoint onto the exact same trajectory — including across world
sizes (elastic resume, PR 7).
"""

import multiprocessing
import tracemalloc
import types

import numpy as np
import pytest

from repro.autograd.lower import toolchain
from repro.core import dMoE
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.distributed import DeviceMesh, shm
from repro.nn import TransformerLM
from repro.observability import registry, tracing
from repro.resilience import counters
from repro.resilience.faults import (
    CORRUPT_PAYLOAD,
    DELAY,
    RANK_FAILURE,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
)
from repro.resilience.guardrails import GuardrailConfig
from repro.training import Adam, Trainer, TrainerConfig
from tests.distributed.test_data_parallel import run_data_parallel


def _trainer(
    dist_backend,
    injector=None,
    max_steps=4,
    mesh=None,
    dp_world=2,
    backend="eager",
    hidden=16,
):
    pile = SyntheticPile(
        PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1
    )
    ds = LMDataset(pile.token_stream(8_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    ffn = lambda i: dMoE(
        hidden, 2 * hidden, num_experts=4, block_size=8, rng=i
    )
    model = TransformerLM(64, hidden, 2, 2, 16, ffn_factory=ffn, rng=0)
    cfg = TrainerConfig(
        global_batch=4,
        micro_batch=4,
        max_steps=max_steps,
        eval_every=0,
        log_every=1,
        guardrails=GuardrailConfig(max_consecutive_bad=3),
        dp_world=dp_world,
        dist_backend=dist_backend,
        backend=backend,
        steady_state=backend != "eager",
    )
    return Trainer(
        model,
        train,
        val,
        cfg,
        optimizer=Adam(model.parameters(), lr=1e-3),
        rng=9,
        fault_injector=injector,
        mesh=mesh,
    )


def _losses(history):
    return {r.step: r.loss for r in history.records}


def _assert_params_equal(a, b):
    for (n1, p1), (_, p2) in zip(a.named_parameters(), b.named_parameters()):
        np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)


class TestTrainerBackends:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="dist_backend"):
            TrainerConfig(dist_backend="nccl")

    def test_mp_trajectory_bit_identical_to_sim(self):
        sim = _trainer("sim")
        sim.train()
        mp_ = _trainer("mp")
        mp_.train()
        assert _losses(sim.history) == _losses(mp_.history)
        _assert_params_equal(sim.model, mp_.model)
        # The echo workers died with the run.
        assert mp_._echo_group is None

    def test_real_rank_kill_skips_exactly_like_injected_fault(self):
        """sim injects a collective fault at step 2; mp SIGKILLs a real
        echo worker at step 2.  Both must skip that one step, heal, and
        land on the identical trajectory."""
        sim_sched = FaultSchedule(
            [FaultEvent(RANK_FAILURE, step=2, op="all_reduce")]
        )
        sim_t = _trainer("sim", FaultInjector(sim_sched))
        sim_t.train()

        mp_sched = FaultSchedule(
            [FaultEvent(RANK_FAILURE, step=2, op="all_reduce")]
        )
        mp_t = _trainer("mp", FaultInjector(mp_sched))
        mp_t.train()

        assert sim_sched.pending == 0, "sim fault never fired"
        assert mp_sched.pending == 0, "mp kill never fired"
        assert _losses(sim_t.history) == _losses(mp_t.history)
        _assert_params_equal(sim_t.model, mp_t.model)

        # The skip really happened: a fault-free run ends elsewhere.
        clean = _trainer("sim")
        clean.train()
        diverged = any(
            not np.array_equal(p1.data, p2.data)
            for p1, p2 in zip(clean.model.parameters(), mp_t.model.parameters())
        )
        assert diverged, "the killed step was not skipped"

    @pytest.mark.parametrize("resume_world", [4, 2], ids=["same", "shrink"])
    def test_chaos_then_elastic_resume_bit_exact(self, tmp_path, resume_world):
        """Kill a real rank at step 2, checkpoint at step 4, resume (at
        the same or a smaller expert mesh) and finish: bit-equal to the
        uninterrupted chaotic run."""
        total, cut = 6, 4

        def chaos_trainer(max_steps, mesh):
            sched = FaultSchedule(
                [FaultEvent(RANK_FAILURE, step=2, op="all_reduce")]
            )
            return _trainer("mp", FaultInjector(sched), max_steps, mesh)

        straight = chaos_trainer(total, DeviceMesh(4, 4))
        straight.train()

        first = chaos_trainer(total, DeviceMesh(4, 4))
        first.config.max_steps = cut
        first.train()
        path = str(tmp_path / "chaos-ckpt")
        first.save(path, step=cut)

        resumed = _trainer(
            "mp", max_steps=total, mesh=DeviceMesh(resume_world, resume_world)
        )
        hist = resumed.fit(resume=path)

        s, r = _losses(straight.history), _losses(hist)
        for step in range(cut, total):
            assert s[step] == r[step], f"loss diverged at step {step}"
        _assert_params_equal(straight.model, resumed.model)
        for a, b in zip(straight.optimizer._m, resumed.optimizer._m):
            np.testing.assert_array_equal(a, b)


def _assert_same_run(a, b):
    """Losses, parameters, both Adam moments and skips, bit for bit."""
    assert _losses(a.history) == _losses(b.history)
    _assert_params_equal(a.model, b.model)
    for name in ("_m", "_v"):
        for x, y in zip(getattr(a.optimizer, name), getattr(b.optimizer, name)):
            np.testing.assert_array_equal(x, y, strict=True)
    assert a.skipped_steps == b.skipped_steps


FAULT_STEP, DELAY_S = 2, 0.2


class TestOneFaultSeam:
    """``Trainer(fault_injector=...)`` alone delivers every collective
    fault kind into the gradient sync, and each fails the step the same
    way over threads and over processes."""

    def _run(self, dist_backend, event, policy):
        registry().reset()
        sched = FaultSchedule([event])
        t = _trainer(dist_backend, FaultInjector(sched, policy))
        with tracing() as tracer:
            t.train()
        assert sched.pending == 0, f"{event.kind} never fired on {dist_backend}"
        sync = [s for s in tracer.spans if s.path == "step/grad_sync"]
        assert len(sync) == 4
        assert any(s.path == "step/grad_sync/all_reduce" for s in tracer.spans)
        return t, counters.get("collective_retries"), sync

    @pytest.mark.parametrize("retry", [False, True], ids=["no_policy", "policy"])
    @pytest.mark.parametrize(
        "kind,rank",
        [
            (RANK_FAILURE, None),
            (CORRUPT_PAYLOAD, None),
            (DELAY, None),
            (RANK_FAILURE, 1),
        ],
        ids=["rank_failure", "corrupt_payload", "delay", "rank_failure_1"],
    )
    def test_same_outcome_on_sim_and_mp(self, kind, rank, retry):
        runs = {}
        for dist_backend in ("sim", "mp"):
            event = FaultEvent(
                kind, step=FAULT_STEP, op="all_reduce", rank=rank, delay_s=DELAY_S
            )
            policy = RetryPolicy(max_retries=3) if retry else None
            runs[dist_backend] = self._run(dist_backend, event, policy)
        (sim, sim_retries, _), (mp_, mp_retries, _) = runs.values()
        _assert_same_run(sim, mp_)
        assert sim_retries == mp_retries
        if kind == RANK_FAILURE:
            assert (sim.skipped_steps, sim_retries) == ((0, 1) if retry else (1, 0))
        elif kind == CORRUPT_PAYLOAD:
            # The NaN reaches the reduced bucket; the norm skips the step.
            assert (sim.skipped_steps, sim_retries) == (1, 0)
        else:
            assert (sim.skipped_steps, sim_retries) == (0, 0)
            for _, _, sync in runs.values():
                assert sync[FAULT_STEP].end - sync[FAULT_STEP].start >= DELAY_S

    @pytest.mark.parametrize("dist_backend", ["sim", "mp"])
    @pytest.mark.parametrize("rank", [0, 2])
    def test_rank_failure_names_a_peer(self, dist_backend, rank):
        """Rank 0 of the trainer's group is the trainer itself: a rank
        failure naming it — or a rank outside the world — is refused,
        never redirected to another peer."""
        event = FaultEvent(RANK_FAILURE, step=0, op="all_reduce", rank=rank)
        t = _trainer(dist_backend, FaultInjector(FaultSchedule([event])))
        try:
            with pytest.raises(ValueError, match="peer ranks 1..1"):
                t.train_step(0)
        finally:
            t.close_dist()


@pytest.fixture
def lower_cache(tmp_path, monkeypatch):
    """A private compile cache for the ``backend="cc"`` runs below
    (without a C toolchain they run as replay — same contract)."""
    monkeypatch.setenv("REPRO_LOWER_CACHE", str(tmp_path / "lower-cache"))
    toolchain._reset_for_tests()
    yield
    toolchain._reset_for_tests()


class TestOneBucketPerStep:
    def test_native_trajectory_same_on_every_transport(self, lower_cache):
        """30 steps on the generated-C rung: the gradient sync changes
        no bit — dp_world=2 over processes = in process = no sync at
        all, and dp_world=4 in process (losses, parameters, both Adam
        moments) — and is one CommLog record per step."""
        steps = 30

        def run(dist_backend, dp_world):
            t = _trainer(
                dist_backend, max_steps=steps, dp_world=dp_world, backend="cc"
            )
            t.train()
            return t

        ref = run("sim", 0)
        assert ref.comm_log is None
        nbytes = sum(p.data.nbytes for p in ref.optimizer.params)
        for dist_backend, world in [("mp", 2), ("sim", 2), ("sim", 4)]:
            got = run(dist_backend, world)
            assert _losses(got.history) == _losses(ref.history)
            _assert_params_equal(got.model, ref.model)
            for name in ("_m", "_v"):
                for a, b in zip(
                    getattr(got.optimizer, name), getattr(ref.optimizer, name)
                ):
                    np.testing.assert_array_equal(a, b, strict=True)
            assert got.skipped_steps == 0
            assert got.comm_log.counts() == {"all_reduce": steps}
            ring = 2.0 * (world - 1) / world
            assert got.comm_log.total_bytes_per_rank() == steps * ring * nbytes

    def test_peers_fork_at_the_top_of_the_first_step(self):
        """A trainer that is never stepped spawns nothing; the first
        step forks its peers before the forward pass grows the heap."""
        t = _trainer("mp")
        assert t._echo_group is None
        assert multiprocessing.active_children() == []
        forked_before_forward = []
        loss = t.model.loss

        def spy(*args, **kwargs):
            forked_before_forward.append(len(multiprocessing.active_children()))
            return loss(*args, **kwargs)

        t.model.loss = spy
        try:
            t.train_step(0)
        finally:
            t.close_dist()
        assert forked_before_forward == [1]

    def test_steady_state_sync_maps_and_allocates_nothing(self, monkeypatch):
        """The drift-free gate: over steps 3-6 the sync creates no
        shared-memory segment, attaches none (here or in the peer: the
        session's segment names do not change), allocates under 64 KB
        against ~0.6 MB of gradients, and leaves every ``p.grad`` the
        object it was."""
        t = _trainer("mp", hidden=64)
        opened, peaks, same_objects = [], [], []

        class Counting(shm.shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                opened.append("create" if kwargs.get("create") else "attach")
                super().__init__(*args, **kwargs)

        sync = t._sync_gradients

        def measured_sync():
            before = [id(p.grad) for p in t.optimizer.params]
            tracemalloc.start()
            try:
                sync()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            same_objects.append(
                before == [id(p.grad) for p in t.optimizer.params]
            )

        try:
            for step in range(3):
                t.train_step(step)
            grad_bytes = sum(p.grad.nbytes for p in t.optimizer.params)
            assert grad_bytes > 8 * 65536
            session = t._echo_group.session
            names = shm.leaked_segments(session)
            assert len(names) == 2  # one window per rank
            monkeypatch.setattr(
                shm, "shared_memory", types.SimpleNamespace(SharedMemory=Counting)
            )
            t._sync_gradients = measured_sync
            for step in range(3, 7):
                t.train_step(step)
            assert shm.leaked_segments(session) == names
        finally:
            monkeypatch.undo()
            t.close_dist()
        assert opened == []
        assert len(peaks) == 4 and max(peaks) < 65536, peaks
        assert same_objects == [True] * 4
        assert shm.leaked_segments(session) == []


class TestDataParallelBackends:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_data_parallel(2, "gloo")

    def test_mp_training_bit_identical_to_sim(self):
        sim = run_data_parallel(2, "sim", steps=4, n=8)
        mp_ = run_data_parallel(2, "mp", steps=4, n=8)
        for (s_params, s_losses, s_log), (m_params, m_losses, m_log) in zip(
            sim, mp_
        ):
            assert s_losses == m_losses
            for a, b in zip(s_params, m_params):
                np.testing.assert_array_equal(a, b, strict=True)
            # Both backends account the same ring-all-reduce volume.
            assert s_log.records == m_log.records
            # One bucketed all_reduce per step, four steps.
            assert m_log.counts() == {"all_reduce": 4}
