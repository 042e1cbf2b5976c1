"""Resume equivalence: N + checkpoint + resume + N == 2N straight.

The fault-tolerance story rests on checkpoints being *perfect* restore
points: model, Adam moments, data order, and RNG streams must all
round-trip bit-exactly, or a recovered run silently
trains a different model.  These tests assert bit-identity, not
tolerance.
"""

import json
import os

import numpy as np
import pytest

from repro.checkpoint import (
    MANIFEST_NAME,
    CheckpointError,
    CheckpointManager,
    save_checkpoint,
)
from repro.data import LMDataset, PileConfig, SyntheticPile
from repro.nn import TransformerLM
from repro.resilience import (
    TORN_WRITE,
    CheckpointWriteFault,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.training import Adam, Trainer, TrainerConfig, WarmupCosineLR
from tests.conftest import flip_byte, shard_file


def _setup(max_steps, moe=False, trainer_seed=11, fault_injector=None):
    pile = SyntheticPile(PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1)
    ds = LMDataset(pile.token_stream(10_000, 32), seq_len=16)
    train, val = ds.split(0.1)
    if moe:
        from repro.core import dMoE

        ffn = lambda i: dMoE(16, 32, num_experts=4, block_size=8, rng=i)
        model = TransformerLM(64, 16, 2, 2, 16, ffn_factory=ffn, rng=0)
    else:
        model = TransformerLM(64, 16, 2, 2, 16, rng=0)
    cfg = TrainerConfig(
        global_batch=8,
        micro_batch=4,
        max_steps=max_steps,
        eval_every=0,
        log_every=1,
    )
    # Identical model init + a private trainer RNG: the straight and the
    # resumed runs see identical parameter and data-order streams.
    return Trainer(
        model,
        train,
        val,
        cfg,
        optimizer=Adam(model.parameters(), lr=2e-3),
        schedule=WarmupCosineLR(2e-3, total_steps=max_steps, warmup_steps=2),
        rng=trainer_seed,
        fault_injector=fault_injector,
    )


def _losses(history):
    return {r.step: r.loss for r in history.records}


class TestResumeEquivalence:
    def test_bit_exact_resume(self, tmp_path):
        n, total = 3, 6
        straight = _setup(total)
        straight.train()

        first = _setup(total)
        first.config.max_steps = n
        first.train()
        path = str(tmp_path / "mid")
        first.save(path, step=n)

        resumed = _setup(total)
        resumed.fit(resume=path)

        # Per-step losses of the second half are bit-identical.
        want = _losses(straight.history)
        got = _losses(resumed.history)
        for step in range(n, total):
            assert got[step] == want[step], f"loss diverged at step {step}"
        # Parameters and optimizer state are bit-identical.
        for a, b in zip(
            straight.model.parameters(), resumed.model.parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)
        assert resumed.optimizer.t == straight.optimizer.t
        for a, b in zip(straight.optimizer._m, resumed.optimizer._m):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(straight.optimizer._v, resumed.optimizer._v):
            np.testing.assert_array_equal(a, b)
        # RNG streams ended in the same place: next draws match.
        assert straight.rng.random() == resumed.rng.random()

    def test_resume_across_epoch_boundary(self, tmp_path):
        """The epoch shuffle order/position round-trips mid-epoch.

        The dataset is small enough (14 batches per epoch, 20 drawn)
        that the straight run re-shuffles mid-way, so the resumed run
        must restore both the in-flight epoch order and the RNG stream
        that generates the next shuffle.
        """
        pile = SyntheticPile(
            PileConfig(vocab_size=64, num_domains=3, branching=4), seed=1
        )
        ds = LMDataset(pile.token_stream(1_000, 32), seq_len=16)
        train, _ = ds.split(0.1)
        assert len(train) // 4 < 20  # epoch really is crossed

        def make(steps):
            model = TransformerLM(64, 16, 2, 2, 16, rng=0)
            cfg = TrainerConfig(
                global_batch=8,
                micro_batch=4,
                max_steps=steps,
                eval_every=0,
                log_every=1,
            )
            return Trainer(
                model,
                train,
                None,
                cfg,
                optimizer=Adam(model.parameters(), lr=2e-3),
                rng=11,
            )

        n, total = 5, 10
        straight = make(total)
        straight.train()

        first = make(n)
        first.train()
        path = str(tmp_path / "mid")
        first.save(path, step=n)

        resumed = make(total)
        resumed.fit(resume=path)
        for a, b in zip(
            straight.model.parameters(), resumed.model.parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)


class TestResumeMoE:
    def test_dmoe_model_resumes_bit_exactly(self, tmp_path):
        n, total = 2, 4
        straight = _setup(total, moe=True)
        straight.train()

        first = _setup(total, moe=True)
        first.config.max_steps = n
        first.train()
        path = str(tmp_path / "mid")
        first.save(path, step=n)

        resumed = _setup(total, moe=True)
        resumed.fit(resume=path)
        for (name, a), (_, b) in zip(
            straight.model.named_parameters(),
            resumed.model.named_parameters(),
        ):
            np.testing.assert_array_equal(a.data, b.data, err_msg=name)


class TestFitCheckpointing:
    def test_fit_writes_rotating_checkpoints_and_resumes(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ckpts"), keep_last=2)
        tr = _setup(6)
        tr.fit(checkpoint_manager=mgr, checkpoint_every=2)
        assert mgr.steps == [4, 6]

        resumed = _setup(6)
        resumed.fit(resume=mgr)  # picks the newest (step 6, final state)
        for a, b in zip(tr.model.parameters(), resumed.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_torn_write_fires_under_default_manager(self, tmp_path):
        """A ``TORN_WRITE`` scheduled under a default-configured manager
        kills the step-4 write mid-shard; a restarted job's
        ``load_latest`` falls back past the torn directory to step 2."""
        schedule = FaultSchedule([FaultEvent(TORN_WRITE, step=3)])
        tr = _setup(4, fault_injector=FaultInjector(schedule))
        directory = str(tmp_path / "ckpts")
        mgr = CheckpointManager(directory)
        with pytest.raises(CheckpointWriteFault):
            tr.fit(checkpoint_manager=mgr, checkpoint_every=2)
        assert schedule.pending == 0, "the torn_write fault must have fired"
        torn = mgr.path_for(4)
        assert os.path.isdir(torn)
        assert not os.path.exists(os.path.join(torn, MANIFEST_NAME))
        assert mgr.steps == [2]

        os.remove(os.path.join(directory, "index.json"))
        restarted = CheckpointManager(directory)
        assert restarted.steps == [2, 4]
        fresh = _setup(4)
        assert restarted.load_latest(fresh.model, fresh.optimizer)["step"] == 2

    def test_fit_resume_falls_back_past_corrupt_newest(self, tmp_path):
        """One flipped byte in the newest checkpoint's shard: ``fit``
        resumes from the older one, bit-identical to the straight run."""
        mgr = CheckpointManager(str(tmp_path / "ckpts"))
        straight = _setup(4)
        straight.fit(checkpoint_manager=mgr, checkpoint_every=2)
        assert mgr.steps == [2, 4]
        flip_byte(shard_file(mgr.path_for(4)))

        resumed = _setup(4)
        resumed.fit(resume=mgr)
        got, want = _losses(resumed.history), _losses(straight.history)
        assert [r.step for r in resumed.history.records][:2] == [2, 3]
        for step in (2, 3):
            assert got[step] == want[step], f"loss diverged at step {step}"
        for a, b in zip(straight.model.parameters(), resumed.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_resume_from_empty_manager_raises(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "none"))
        tr = _setup(2)
        with pytest.raises(CheckpointError):
            tr.fit(resume=mgr)

    def test_plain_checkpoint_cannot_resume_bit_exactly(self, tmp_path):
        tr = _setup(2)
        path = str(tmp_path / "plain")
        save_checkpoint(path, tr.model, tr.optimizer, step=1)
        with pytest.raises(CheckpointError, match="trainer state"):
            tr.fit(resume=path)


def _rewrite_trainer_state(path, edit):
    """Apply ``edit`` to a saved checkpoint's trainer state in place."""
    mpath = os.path.join(path, MANIFEST_NAME)
    with open(mpath) as fh:
        manifest = json.load(fh)
    edit(manifest["extra"]["trainer_state"])
    with open(mpath, "w") as fh:
        json.dump(manifest, fh)


def _written_with_the_scaler(state):
    """What a trainer with the (since removed) fp16 loss scaler wrote."""
    state["use_grad_scaler"] = True
    state["scaler"] = {"scale": 16384.0, "clean_steps": 2, "num_overflows": 0}


class TestRestoreValidation:
    @pytest.mark.parametrize(
        "reason, match",
        [
            pytest.param("no-trainer-state", "trainer state", id="no-trainer-state"),
            pytest.param("rng-type", "RNG", id="rng-type"),
            pytest.param("scaler", "loss scaler", id="scaler"),
        ],
    )
    def test_rejection_leaves_model_and_optimizer_untouched(
        self, tmp_path, reason, match
    ):
        trained = _setup(2)
        trained.train()
        path = str(tmp_path / "ckpt")
        if reason == "no-trainer-state":
            save_checkpoint(path, trained.model, trained.optimizer, step=2)
        else:
            trained.save(path, step=2)
            edit = {
                "rng-type": lambda st: st["rng"].update(bit_generator="MT19937"),
                "scaler": _written_with_the_scaler,
            }[reason]
            _rewrite_trainer_state(path, edit)

        fresh = _setup(2)
        opt = fresh.optimizer
        state = lambda: [p.data for p in opt.params] + opt._m + opt._v
        before = [a.copy() for a in state()]
        with pytest.raises(CheckpointError, match=match):
            fresh.restore(path)
        assert opt.t == 0
        for a, b in zip(before, state()):
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_written_with_the_scaler_off_resumes(self, tmp_path):
        """Trainer state from before the scaler's removal — with
        ``use_grad_scaler: false`` and ``scaler: null`` — resumes
        bit-exactly."""
        straight = _setup(4)
        straight.train()
        first = _setup(4)
        first.config.max_steps = 2
        first.train()
        path = str(tmp_path / "mid")
        first.save(path, step=2)
        _rewrite_trainer_state(
            path, lambda st: st.update(use_grad_scaler=False, scaler=None)
        )
        resumed = _setup(4)
        resumed.fit(resume=path)
        for a, b in zip(straight.optimizer.params, resumed.optimizer.params):
            np.testing.assert_array_equal(a.data, b.data)
