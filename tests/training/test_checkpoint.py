import os

import numpy as np
import pytest

from repro.checkpoint import (
    MANIFEST_NAME,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn import Linear, Sequential
from repro.training import Adam
from tests.conftest import flip_byte, shard_file


def _model():
    return Sequential(Linear(4, 8, rng=0), Linear(8, 2, rng=1))


class TestSaveLoad:
    def test_roundtrip_parameters(self, tmp_path):
        m = _model()
        path = str(tmp_path / "ckpt")
        save_checkpoint(path, m, step=7)
        m2 = _model()
        for p in m2.parameters():
            p.data += 1.0
        meta = load_checkpoint(path, m2)
        assert meta["step"] == 7
        for (n1, p1), (n2, p2) in zip(
            m.named_parameters(), m2.named_parameters()
        ):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_roundtrip_adam_state(self, tmp_path):
        m = _model()
        opt = Adam(m.parameters(), lr=1e-2)
        # Take a few steps to populate moments.
        rng = np.random.default_rng(0)
        for _ in range(3):
            for p in opt.params:
                p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            opt.step()
        path = str(tmp_path / "ckpt")
        save_checkpoint(path, m, opt, step=3)

        m2 = _model()
        opt2 = Adam(m2.parameters(), lr=1e-2)
        load_checkpoint(path, m2, opt2)
        assert opt2.t == opt.t
        for a, b in zip(opt._m, opt2._m):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(opt._v, opt2._v):
            np.testing.assert_array_equal(a, b)

    def test_resume_training_is_equivalent(self, tmp_path):
        """Train 6 steps straight == train 3, checkpoint, restore, 3 more."""
        rng = np.random.default_rng(1)
        grads = [
            [rng.standard_normal(p.shape).astype(np.float32) for p in
             [q.data for q in _model().parameters()]]
            for _ in range(6)
        ]

        def train(model, opt, gs):
            for g in gs:
                for p, gg in zip(opt.params, g):
                    p.grad = gg.copy()
                opt.step()

        m1 = _model()
        o1 = Adam(m1.parameters(), lr=1e-2)
        train(m1, o1, grads)

        m2 = _model()
        o2 = Adam(m2.parameters(), lr=1e-2)
        train(m2, o2, grads[:3])
        path = str(tmp_path / "mid")
        save_checkpoint(path, m2, o2, step=3)
        m3 = _model()
        o3 = Adam(m3.parameters(), lr=1e-2)
        load_checkpoint(path, m3, o3)
        train(m3, o3, grads[3:])

        for p1, p3 in zip(m1.parameters(), m3.parameters()):
            np.testing.assert_allclose(p1.data, p3.data, atol=1e-7)

    def test_missing_adam_state_raises(self, tmp_path):
        m = _model()
        path = str(tmp_path / "noadam")
        save_checkpoint(path, m)
        with pytest.raises(KeyError):
            load_checkpoint(path, _model(), Adam(_model().parameters()))

    def test_extra_metadata(self, tmp_path):
        m = _model()
        path = str(tmp_path / "meta")
        save_checkpoint(path, m, step=1, extra={"val_loss": 2.5})
        meta = load_checkpoint(path, _model())
        assert meta["extra"]["val_loss"] == 2.5

    def test_extra_arrays_roundtrip(self, tmp_path):
        m = _model()
        path = str(tmp_path / "arrays")
        order = np.arange(10, dtype=np.int64)[::-1].copy()
        save_checkpoint(path, m, extra_arrays={"epoch_order": order})
        meta = load_checkpoint(path, _model())
        np.testing.assert_array_equal(meta["extra_arrays"]["epoch_order"], order)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "clean")
        save_checkpoint(path, _model())
        assert os.listdir(tmp_path) == ["clean"]
        assert sorted(os.listdir(path)) == [MANIFEST_NAME, "shards"]
        assert not [f for f in os.listdir(os.path.join(path, "shards"))
                    if not f.endswith(".npy")]


class TestValidation:
    def test_truncated_checkpoint_rejected_with_clear_error(self, tmp_path):
        """A shard cut off mid-write fails as corrupt, not as a cryptic
        numpy exception."""
        path = str(tmp_path / "trunc")
        save_checkpoint(path, _model(), step=2)
        victim = shard_file(path)
        size = os.path.getsize(victim)
        for frac in (0.95, 0.6, 0.25):
            os.truncate(victim, int(size * frac))
            with pytest.raises(CheckpointCorruptError):
                load_checkpoint(path, _model())

    def test_bitflip_caught_by_checksum(self, tmp_path):
        path = str(tmp_path / "flip")
        save_checkpoint(path, _model(), step=2)
        flip_byte(shard_file(path))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path, _model())

    def test_garbage_file_rejected(self, tmp_path):
        path = str(tmp_path / "garbage")
        save_checkpoint(path, _model())
        with open(os.path.join(path, MANIFEST_NAME), "wb") as fh:
            fh.write(b"not a manifest at all")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, _model())

    def test_missing_file_still_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope"), _model())

    def test_optimizer_param_count_mismatch_is_clear(self, tmp_path):
        path = str(tmp_path / "adam")
        m = _model()
        opt = Adam(m.parameters())
        save_checkpoint(path, m, opt, step=1)
        # Optimizer over a subset of parameters: count differs.
        m2 = _model()
        opt2 = Adam(list(m2.parameters())[:2])
        with pytest.raises(ValueError, match="parameter count mismatch"):
            load_checkpoint(path, m2, opt2)

    def test_optimizer_moment_shape_mismatch_is_clear(self, tmp_path):
        """Same moment count, different shapes: rejected before any
        optimizer state is overwritten."""
        path = str(tmp_path / "adam-shape")
        m = _model()
        opt = Adam(m.parameters())
        save_checkpoint(path, m, opt, step=1)
        m2 = _model()
        opt2 = Adam(list(m2.parameters())[::-1])
        opt2.t = 41
        with pytest.raises(ValueError, match="shape mismatch"):
            load_checkpoint(path, m2, opt2)
        assert opt2.t == 41
        assert all(not mom.any() for mom in opt2._m)

    def test_model_untouched_when_checksum_fails(self, tmp_path):
        """Validation happens before any state is mutated."""
        path = str(tmp_path / "half")
        m = _model()
        save_checkpoint(path, m, step=1)
        # Damage the *last* shard: every earlier one validates first.
        victim = shard_file(path, -1)
        os.truncate(victim, os.path.getsize(victim) // 2)
        m2 = _model()
        before = [p.data.copy() for p in m2.parameters()]
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, m2)
        for p, b in zip(m2.parameters(), before):
            np.testing.assert_array_equal(p.data, b)


class TestCheckpointManager:
    def test_rotation_keeps_last_n(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ckpts"), keep_last=2)
        m = _model()
        for step in (1, 2, 3, 4):
            mgr.save(m, step=step)
        assert mgr.steps == [3, 4]
        assert os.path.exists(mgr.path_for(4))
        assert not os.path.exists(mgr.path_for(1))

    def test_best_checkpoint_survives_rotation(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ckpts"), keep_last=2)
        m = _model()
        mgr.save(m, step=1, metric=1.0)
        mgr.save(m, step=2, metric=2.0)  # worse
        mgr.save(m, step=3, metric=1.5)
        mgr.save(m, step=4, metric=1.2)
        assert mgr.best == {"step": 1, "metric": 1.0}
        assert os.path.exists(mgr.best_path)
        load_checkpoint(mgr.best_path, _model())  # valid and loadable

    def test_index_rebuilt_from_directory(self, tmp_path):
        directory = str(tmp_path / "ckpts")
        mgr = CheckpointManager(directory, keep_last=3)
        m = _model()
        for step in (5, 6):
            mgr.save(m, step=step)
        os.remove(os.path.join(directory, "index.json"))
        fresh = CheckpointManager(directory, keep_last=3)
        assert fresh.steps == [5, 6]

    def test_load_latest_falls_back_past_corrupt_newest(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ckpts"), keep_last=3)
        m = _model()
        mgr.save(m, step=1)
        marker = _model()
        for p in marker.parameters():
            p.data += 1.0
        mgr.save(marker, step=2)
        # Corrupt the newest checkpoint on disk.
        victim = shard_file(mgr.path_for(2))
        os.truncate(victim, os.path.getsize(victim) // 2)
        m2 = _model()
        meta = mgr.load_latest(m2)
        assert meta["step"] == 1
        for a, b in zip(m2.parameters(), m.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_load_latest_raises_when_nothing_valid(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "empty"))
        with pytest.raises(CheckpointError):
            mgr.load_latest(_model())
