"""Elastic resume + async checkpointing, end to end through the Trainer.

The PR 7 acceptance contract:

- a run saved at world size N resumes at world size M (both directions)
  and at N *bit-identically* — losses, parameters, optimizer state, and
  RNG streams all match the uninterrupted run;
- checkpoints written by the async background writer are byte-identical
  to synchronous ones, and the write really happens off the training
  thread;
- a write killed mid-shard (injected ``TORN_WRITE`` fault) leaves a
  torn directory that direct loads reject and ``load_latest`` skips.
"""

import os
import threading

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    MANIFEST_NAME,
    load_checkpoint,
)
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.distributed import DeviceMesh
from repro.nn import TransformerLM
from repro.resilience import (
    TORN_WRITE,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.training import Adam, Trainer, TrainerConfig, WarmupCosineLR


def _trainer(max_steps, mesh=None, async_ckpt=False, fault_injector=None):
    pile = SyntheticPile(
        PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1
    )
    ds = LMDataset(pile.token_stream(10_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    from repro.core import dMoE

    ffn = lambda i: dMoE(16, 32, num_experts=4, block_size=8, rng=i)
    model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, rng=0)
    cfg = TrainerConfig(
        global_batch=8,
        micro_batch=4,
        max_steps=max_steps,
        eval_every=0,
        log_every=1,
        async_checkpoint=async_ckpt,
    )
    return Trainer(
        model,
        train,
        val,
        cfg,
        optimizer=Adam(model.parameters(), lr=2e-3),
        schedule=WarmupCosineLR(2e-3, total_steps=max_steps, warmup_steps=2),
        rng=11,
        mesh=mesh,
        fault_injector=fault_injector,
    )


def _losses(history):
    return {r.step: r.loss for r in history.records}


def _dir_bytes(path):
    out = {}
    for root, _, files in os.walk(path):
        for f in files:
            p = os.path.join(root, f)
            out[os.path.relpath(p, path)] = open(p, "rb").read()
    return out


class TestElasticResume:
    @pytest.mark.parametrize("resume_world", [4, 2, 1], ids=["same", "shrink", "gather"])
    def test_resume_at_other_world_is_bit_exact(self, tmp_path, resume_world):
        """Train 3 + save at world 4 + resume at world M + train 3 ==
        train 6 straight, bit for bit."""
        n, total = 3, 6
        straight = _trainer(total, mesh=DeviceMesh(4, 4))
        straight.train()

        first = _trainer(total, mesh=DeviceMesh(4, 4))
        first.config.max_steps = n
        first.train()
        path = str(tmp_path / "elastic-ckpt")
        first.save(path, step=n)

        second = _trainer(total, mesh=DeviceMesh(resume_world, resume_world))
        hist = second.fit(resume=path)

        s, r = _losses(straight.history), _losses(hist)
        for step in range(n, total):
            assert s[step] == r[step], f"loss diverged at step {step}"
        for (n1, p1), (n2, p2) in zip(
            straight.model.named_parameters(), second.model.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data, err_msg=n1)
        for a, b in zip(straight.optimizer._m, second.optimizer._m):
            np.testing.assert_array_equal(a, b)
        assert (
            straight.rng.bit_generator.state == second.rng.bit_generator.state
        )

    def test_n_to_m_to_n_round_trip_is_identity(self, tmp_path):
        """Save at 4, load at 2, re-save at 2, load back at 4: every
        array bit-identical to the original."""
        t4 = _trainer(3, mesh=DeviceMesh(4, 4))
        t4.train()
        p4 = str(tmp_path / "at4")
        t4.save(p4, step=3)

        t2 = _trainer(3, mesh=DeviceMesh(2, 2))
        t2.restore(p4)
        p2 = str(tmp_path / "at2")
        t2.save(p2, step=3)

        t4b = _trainer(3, mesh=DeviceMesh(4, 4))
        t4b.restore(p2)
        for (n1, p1), (n2, p2_) in zip(
            t4.model.named_parameters(), t4b.model.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2_.data, err_msg=n1)
        for a, b in zip(t4.optimizer._m, t4b.optimizer._m):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(t4.optimizer._v, t4b.optimizer._v):
            np.testing.assert_array_equal(a, b)
        assert t4.rng.bit_generator.state == t4b.rng.bit_generator.state


class TestAsyncCheckpointing:
    def test_async_checkpoints_byte_identical_to_sync(self, tmp_path):
        mesh = DeviceMesh(4, 4)
        sync_t = _trainer(4, mesh=mesh)
        sync_mgr = CheckpointManager(str(tmp_path / "sync"), keep_last=5)
        sync_t.fit(checkpoint_manager=sync_mgr, checkpoint_every=2)

        async_t = _trainer(4, mesh=mesh, async_ckpt=True)
        async_mgr = CheckpointManager(str(tmp_path / "async"), keep_last=5)
        async_t.fit(checkpoint_manager=async_mgr, checkpoint_every=2)

        # Identical training on both sides...
        assert _losses(sync_t.history) == _losses(async_t.history)
        assert sync_mgr.steps == async_mgr.steps == [2, 4]
        # ...and identical bytes on disk, shard for shard.
        for step in (2, 4):
            a = _dir_bytes(sync_mgr.path_for(step))
            b = _dir_bytes(async_mgr.path_for(step))
            assert a.keys() == b.keys()
            for name in a:
                assert a[name] == b[name], f"step {step}: {name} differs"

        # The writes really overlapped training: they ran on the worker
        # thread, not the training thread.
        w = async_t.ckpt_writer
        assert w is not None and w.written == 2 and w.failed == 0
        assert w.worker_ident is not None
        assert w.worker_ident != threading.get_ident()

    def test_async_checkpoint_resumes_bit_exact(self, tmp_path):
        straight = _trainer(6, mesh=DeviceMesh(4, 4))
        straight.train()

        part = _trainer(6, mesh=DeviceMesh(4, 4), async_ckpt=True)
        part.config.max_steps = 4
        mgr = CheckpointManager(str(tmp_path / "run"))
        part.fit(checkpoint_manager=mgr, checkpoint_every=2)

        resumed = _trainer(6, mesh=DeviceMesh(4, 4))
        hist = resumed.fit(resume=mgr)
        s, r = _losses(straight.history), _losses(hist)
        for step in (4, 5):
            assert s[step] == r[step]


class TestTornWriteChaos:
    def test_sync_torn_write_falls_back_to_previous(self, tmp_path):
        """Kill the step-4 checkpoint write mid-shard (the synchronous
        path, so the kill is a hard crash at a known step): the step-2
        checkpoint must remain the recovery point."""
        from repro.resilience import CheckpointWriteFault

        schedule = FaultSchedule([FaultEvent(TORN_WRITE, step=3)])
        injector = FaultInjector(schedule)
        t = _trainer(4, mesh=DeviceMesh(4, 4), fault_injector=injector)
        mgr = CheckpointManager(str(tmp_path / "run"))
        with pytest.raises(CheckpointWriteFault):
            t.fit(checkpoint_manager=mgr, checkpoint_every=2)

        assert schedule.pending == 0, "the torn_write fault must have fired"
        # The torn directory exists (manifest never published) and was
        # never registered...
        torn = mgr.path_for(4)
        assert os.path.isdir(torn)
        assert not os.path.exists(os.path.join(torn, MANIFEST_NAME))
        assert mgr.steps == [2]
        # ...direct loads reject it...
        fresh = _trainer(4, mesh=DeviceMesh(4, 4))
        with pytest.raises(CheckpointCorruptError, match="torn"):
            load_checkpoint(torn, fresh.model, fresh.optimizer)
        # ...and the rebuilt manager (a restarted job) skips it: the
        # directory listing picks the torn dir up again, load_latest
        # falls back past it to step 2.
        os.remove(os.path.join(str(tmp_path / "run"), "index.json"))
        mgr2 = CheckpointManager(str(tmp_path / "run"))
        assert mgr2.steps == [2, 4]
        meta = mgr2.load_latest(fresh.model, fresh.optimizer)
        assert meta["step"] == 2

    def test_async_torn_write_is_surfaced_not_fatal(self, tmp_path):
        """The same kill on the background writer: training finishes,
        the failure is counted and surfaced, and the torn directory
        never enters the rotation."""
        schedule = FaultSchedule([FaultEvent(TORN_WRITE)])
        injector = FaultInjector(schedule)
        t = _trainer(4, mesh=DeviceMesh(4, 4), async_ckpt=True,
                     fault_injector=injector)
        mgr = CheckpointManager(str(tmp_path / "run"))
        hist = t.fit(checkpoint_manager=mgr, checkpoint_every=2)
        assert len(hist.records) > 0, "training must complete"

        w = t.ckpt_writer
        assert w.failed == 1 and w.written == 1
        assert schedule.pending == 0
        # The first write died torn and was never registered; the second
        # landed, so recovery resumes from step 4.
        torn = mgr.path_for(2)
        assert os.path.isdir(torn)
        assert not os.path.exists(os.path.join(torn, MANIFEST_NAME))
        assert mgr.steps == [4]
        fresh = _trainer(4, mesh=DeviceMesh(4, 4))
        assert mgr.load_latest(fresh.model, fresh.optimizer)["step"] == 4

    def test_mid_write_kill_leaves_earlier_shards(self, tmp_path):
        """An op-targeted fault dies *mid-stream*: shards written before
        the kill exist on disk, the manifest does not."""
        t = _trainer(2, mesh=DeviceMesh(4, 4))
        t.train()
        state = t._build_save_state(step=2)
        victim_key = list(state.arrays)[5]
        schedule = FaultSchedule([FaultEvent(TORN_WRITE, op=victim_key)])
        injector = FaultInjector(schedule)
        from repro.resilience import CheckpointWriteFault
        from repro.checkpoint import write_state

        path = str(tmp_path / "torn")
        with pytest.raises(CheckpointWriteFault):
            write_state(path, state, fault_hook=injector.checkpoint_fault)
        shards = os.listdir(os.path.join(path, "shards"))
        assert len(shards) > 0, "earlier shards must have landed"
        assert not os.path.exists(os.path.join(path, MANIFEST_NAME))
        with pytest.raises(CheckpointCorruptError, match="torn"):
            load_checkpoint(path, t.model, t.optimizer)


class TestCliInspect:
    def test_ckpt_inspect_smoke(self, tmp_path, capsys):
        from repro import cli

        t = _trainer(2, mesh=DeviceMesh(4, 4))
        t.train()
        path = str(tmp_path / "ckpt-dir")
        t.save(path, step=2)
        assert cli.main(["ckpt", "inspect", path, "--verify", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "format_version=3" in out
        assert "world=4" in out
        assert "verify: OK" in out
        assert "crc32=" in out

    def test_ckpt_inspect_rejects_torn(self, tmp_path, capsys):
        from repro import cli

        t = _trainer(2, mesh=DeviceMesh(4, 4))
        path = str(tmp_path / "ckpt-dir")
        t.save(path, step=2)
        os.remove(os.path.join(path, MANIFEST_NAME))
        assert cli.main(["ckpt", "inspect", path]) == 1
        assert "torn" in capsys.readouterr().err

    def test_ckpt_inspect_rejects_stray_file(self, tmp_path, capsys):
        from repro import cli

        stray = str(tmp_path / "old.npz")
        np.savez(stray, w=np.zeros(3))
        assert cli.main(["ckpt", "inspect", stray]) == 1
        assert "removed" in capsys.readouterr().err
