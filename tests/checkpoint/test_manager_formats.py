"""CheckpointManager over checkpoint directories, healthy and broken.

Rotation and best-tracking move whole directories, the index rebuilds
from a listing (ignoring anything that is not a checkpoint directory
name), and ``load_latest`` must fall back past every flavor of damage:
torn directory, corrupt shard, valid-manifest-missing-shard.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointError,
    CheckpointManager,
    MANIFEST_NAME,
    ShardReader,
    save_checkpoint,
)
from repro.nn import Linear, Sequential
from repro.training import Adam


def _model(rng=0):
    return Sequential(Linear(4, 8, rng=rng), Linear(8, 2, rng=rng + 1))


class TestManagerDirectories:
    def test_rebuild_ignores_stray_files(self, tmp_path):
        """A leftover file of the removed single-file format (or any
        other non-checkpoint name) never enters the rebuilt index."""
        d = str(tmp_path / "run")
        mgr = CheckpointManager(d, keep_last=5)
        mgr.save(_model(), step=2)
        np.savez(os.path.join(d, "ckpt-00000001.npz"), w=np.zeros(3))
        os.remove(os.path.join(d, "index.json"))
        rebuilt = CheckpointManager(d, keep_last=5)
        assert rebuilt.steps == [2]
        assert rebuilt.load_latest(_model())["step"] == 2

    def test_rotation_removes_directories(self, tmp_path):
        d = str(tmp_path / "run")
        mgr = CheckpointManager(d, keep_last=2, keep_best=False)
        m = _model()
        for step in (1, 2, 3):
            mgr.save(m, step=step)
        assert mgr.steps == [2, 3]
        assert not os.path.exists(os.path.join(d, "ckpt-00000001"))
        assert os.path.isdir(os.path.join(d, "ckpt-00000003"))

    def test_best_checkpoint_copies_directory(self, tmp_path):
        d = str(tmp_path / "run")
        mgr = CheckpointManager(d, keep_last=1)
        m = _model()
        mgr.save(m, step=1, metric=2.0)
        mgr.save(m, step=2, metric=1.0)  # better; step 1 pruned
        mgr.save(m, step=3, metric=5.0)  # worse
        assert mgr.best == {"step": 2, "metric": 1.0}
        best = os.path.join(d, "ckpt-best")
        assert os.path.isdir(best)
        assert ShardReader(best).meta["step"] == 2


class TestLoadLatestFallback:
    def _mgr_with_three(self, tmp_path):
        d = str(tmp_path / "run")
        mgr = CheckpointManager(d, keep_last=5, keep_best=False)
        models = {}
        for step in (1, 2, 3):
            m = _model(rng=step * 10)
            opt = Adam(m.parameters(), lr=1e-2)
            mgr.save(m, opt, step=step)
            models[step] = m
        return d, mgr, models

    def test_skips_torn_directory(self, tmp_path):
        d, mgr, models = self._mgr_with_three(tmp_path)
        os.remove(os.path.join(d, "ckpt-00000003", MANIFEST_NAME))
        m = _model(rng=99)
        meta = mgr.load_latest(m, Adam(m.parameters(), lr=1e-2))
        assert meta["step"] == 2
        for p1, p2 in zip(models[2].parameters(), m.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_skips_valid_manifest_missing_shard(self, tmp_path):
        d, mgr, models = self._mgr_with_three(tmp_path)
        victim_dir = os.path.join(d, "ckpt-00000003")
        victim = ShardReader(victim_dir).manifest["shards"][0]["file"]
        os.remove(os.path.join(victim_dir, victim))
        m = _model(rng=99)
        assert mgr.load_latest(m)["step"] == 2

    def test_skips_corrupt_shard(self, tmp_path):
        d, mgr, models = self._mgr_with_three(tmp_path)
        victim_dir = os.path.join(d, "ckpt-00000003")
        victim = ShardReader(victim_dir).manifest["shards"][1]["file"]
        with open(os.path.join(victim_dir, victim), "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"\x7f")
        m = _model(rng=99)
        assert mgr.load_latest(m)["step"] == 2

    def test_skips_deleted_checkpoint_entirely(self, tmp_path):
        d, mgr, models = self._mgr_with_three(tmp_path)
        shutil.rmtree(os.path.join(d, "ckpt-00000003"))
        m = _model(rng=99)
        assert mgr.load_latest(m)["step"] == 2

    def test_all_broken_raises_with_trail(self, tmp_path):
        d, mgr, _ = self._mgr_with_three(tmp_path)
        for step in (1, 2, 3):
            os.remove(os.path.join(d, f"ckpt-{step:08d}", MANIFEST_NAME))
        with pytest.raises(CheckpointError, match="tried 3"):
            mgr.load_latest(_model(rng=99))

    def test_index_rewrite_survives_missing_index(self, tmp_path):
        d, mgr, _ = self._mgr_with_three(tmp_path)
        index = json.load(open(os.path.join(d, "index.json")))
        assert index["checkpoints"] == [1, 2, 3]
