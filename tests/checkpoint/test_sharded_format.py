"""Sharded v3 format: streaming writes, atomic publish, validation.

The format's whole durability story is "the manifest rename is the
publish": shard files are fsynced before the manifest names them, so a
directory without a manifest is by definition a torn write and a
manifest entry whose shard is missing/damaged makes the checkpoint
corrupt.  These tests pin each clause of that contract, plus the lazy
reader, the expert sharding layout, and the inspection helpers.
"""

import json
import os

import numpy as np
import pytest

from repro.checkpoint import (
    MANIFEST_NAME,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointState,
    ShardReader,
    ShardWriter,
    describe_checkpoint,
    format_describe,
    load_checkpoint,
    load_state,
    save_checkpoint,
    write_state,
)
from repro.distributed import DeviceMesh
from repro.nn import Linear, Sequential
from repro.training import Adam
from tests.conftest import flip_byte


def _model():
    return Sequential(Linear(4, 8, rng=0), Linear(8, 2, rng=1))


def _state(rng_seed=0, mesh=None):
    rng = np.random.default_rng(rng_seed)
    arrays = {
        "model/w": rng.standard_normal((4, 8)).astype(np.float32),
        "model/experts.w1": rng.standard_normal((4, 3, 5)).astype(np.float32),
        "extra/order": np.arange(10, dtype=np.int64),
    }
    meta = {"step": 7, "extra": {"val_loss": 1.5}}
    if mesh is not None:
        meta["mesh"] = {
            "world": mesh.world,
            "expert_parallel": mesh.expert_parallel,
        }
    return CheckpointState(
        arrays=arrays, meta=meta, expert_axes={"model/experts.w1": (0, 4)}
    )


class TestShardWriterReader:
    def test_roundtrip(self, tmp_path):
        state = _state()
        path = str(tmp_path / "ckpt")
        write_state(path, state)
        reader = ShardReader(path)
        assert sorted(reader.keys()) == sorted(state.arrays)
        for key, arr in state.arrays.items():
            np.testing.assert_array_equal(reader[key], arr)
        assert reader.meta["step"] == 7

    def test_expert_tensor_is_one_shard_per_expert(self, tmp_path):
        mesh = DeviceMesh(world=4, expert_parallel=4)
        path = str(tmp_path / "ckpt")
        write_state(path, _state(mesh=mesh), mesh=mesh)
        reader = ShardReader(path)
        entries = reader.entries("model/experts.w1")
        assert len(entries) == 4
        for e, entry in enumerate(sorted(entries, key=lambda x: x["part"]["index"])):
            assert entry["part"] == {
                "axis": 0,
                "index": e,
                "count": 4,
                "rank": mesh.owner_of_expert(e, 4),
            }
        # Reassembly restores the stacked tensor bit-exactly.
        np.testing.assert_array_equal(
            reader["model/experts.w1"], _state().arrays["model/experts.w1"]
        )

    def test_write_state_annotates_ranks_from_meta_mesh(self, tmp_path):
        """The async/sync serializer recovers the mesh from the state's
        own metadata — no separate mesh plumbing required."""
        mesh = DeviceMesh(world=2, expert_parallel=2)
        path = str(tmp_path / "ckpt")
        write_state(path, _state(mesh=mesh))
        entries = ShardReader(path).entries("model/experts.w1")
        assert [e["part"]["rank"] for e in
                sorted(entries, key=lambda x: x["part"]["index"])] == [0, 0, 1, 1]

    def test_lazy_read_touches_only_requested_shards(self, tmp_path):
        path = str(tmp_path / "ckpt")
        write_state(path, _state())
        reader = ShardReader(path)
        # Damage a shard the read below never asks for.
        victim = reader.entries("model/experts.w1")[0]["file"]
        with open(os.path.join(path, victim), "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"\xff")
        np.testing.assert_array_equal(
            reader["extra/order"], np.arange(10, dtype=np.int64)
        )

    def test_writer_refuses_puts_after_finalize(self, tmp_path):
        w = ShardWriter(str(tmp_path / "ckpt"))
        w.put("a", np.zeros(3))
        w.finalize({})
        with pytest.raises(Exception, match="finalized"):
            w.put("b", np.zeros(3))

    def test_expert_extent_mismatch_fails_loudly(self, tmp_path):
        w = ShardWriter(str(tmp_path / "ckpt"))
        with pytest.raises(Exception, match="num_experts"):
            w.put_expert_sharded("k", np.zeros((3, 2)), num_experts=4)
        w.abort()
        assert not os.path.isdir(str(tmp_path / "ckpt"))


class TestTornAndCorrupt:
    def test_directory_without_manifest_is_torn(self, tmp_path):
        path = str(tmp_path / "ckpt")
        w = ShardWriter(path)
        w.put("model/w", np.zeros((2, 2), dtype=np.float32))
        # Writer dies before finalize: shards exist, manifest does not.
        assert os.path.isdir(os.path.join(path, "shards"))
        with pytest.raises(CheckpointCorruptError, match="torn"):
            ShardReader(path)

    def test_missing_path_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardReader(str(tmp_path / "nope"))

    def test_bit_flipped_shard_fails_crc(self, tmp_path):
        path = str(tmp_path / "ckpt")
        write_state(path, _state())
        reader = ShardReader(path)
        victim = reader.entries("model/w")[0]["file"]
        flip_byte(os.path.join(path, victim), from_end=1)
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            ShardReader(path)["model/w"]

    def test_deleted_shard_is_corrupt(self, tmp_path):
        path = str(tmp_path / "ckpt")
        write_state(path, _state())
        victim = ShardReader(path).entries("extra/order")[0]["file"]
        os.remove(os.path.join(path, victim))
        with pytest.raises(CheckpointCorruptError, match="missing"):
            load_state(path)

    def test_truncated_manifest_is_corrupt(self, tmp_path):
        path = str(tmp_path / "ckpt")
        write_state(path, _state())
        mpath = os.path.join(path, MANIFEST_NAME)
        blob = open(mpath, "rb").read()
        with open(mpath, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointCorruptError, match="JSON"):
            ShardReader(path)

    def test_wrong_format_version_is_corrupt(self, tmp_path):
        path = str(tmp_path / "ckpt")
        write_state(path, _state())
        mpath = os.path.join(path, MANIFEST_NAME)
        manifest = json.load(open(mpath))
        manifest["format_version"] = 99
        json.dump(manifest, open(mpath, "w"))
        with pytest.raises(CheckpointCorruptError, match="format_version"):
            ShardReader(path)

    def test_validation_precedes_mutation(self, tmp_path):
        """A corrupt load leaves the destination model untouched."""
        m = _model()
        path = str(tmp_path / "ckpt")
        save_checkpoint(path, m, step=1)
        victim = ShardReader(path).manifest["shards"][0]["file"]
        with open(os.path.join(path, victim), "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"\x00")
        m2 = _model()
        before = [p.data.copy() for p in m2.parameters()]
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, m2)
        for p, b in zip(m2.parameters(), before):
            np.testing.assert_array_equal(p.data, b)


class TestSaveLoadDescribe:
    def test_path_dispatch(self, tmp_path):
        """What a load does is decided by what is at the path: a
        directory loads, nothing is ``FileNotFoundError``, and a file —
        a leftover of the removed single-file format — is refused by
        name (not with a bare ``NotADirectoryError``) before any state
        is touched."""
        m = _model()
        before = [p.data.copy() for p in m.parameters()]
        with pytest.raises(FileNotFoundError):
            load_checkpoint(str(tmp_path / "nope"), m)
        stray = str(tmp_path / "old.npz")
        np.savez(stray, w=np.zeros(3))
        with pytest.raises(CheckpointError, match=r"\.npz format .* removed"):
            load_checkpoint(stray, m)
        for p, b in zip(m.parameters(), before):
            np.testing.assert_array_equal(p.data, b)
        path = str(tmp_path / "ckpt")
        save_checkpoint(path, _model(), step=4)
        assert load_checkpoint(path, m)["step"] == 4

    def test_save_load_full_model_roundtrip(self, tmp_path):
        m = _model()
        opt = Adam(m.parameters(), lr=1e-2)
        rng = np.random.default_rng(3)
        for _ in range(2):
            for p in opt.params:
                p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            opt.step()
        path = str(tmp_path / "ckpt-dir")
        save_checkpoint(path, m, opt, step=2)
        m2, opt2 = _model(), None
        opt2 = Adam(m2.parameters(), lr=1e-2)
        meta = load_checkpoint(path, m2, opt2)
        assert meta["step"] == 2 and meta["format_version"] == 3
        for p1, p2 in zip(m.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
        for a, b in zip(opt._m, opt2._m):
            np.testing.assert_array_equal(a, b)
        assert opt2.t == opt.t

    def test_describe_structured_and_table(self, tmp_path):
        """Both inspection outputs: the structured description and the
        human-readable table ``ckpt inspect`` prints."""
        state = _state(mesh=DeviceMesh(world=4, expert_parallel=4))
        path = str(tmp_path / "a-dir")
        write_state(path, state)
        info = describe_checkpoint(path, verify=True)
        assert info["format_version"] == 3
        assert info["step"] == 7
        assert info["mesh"] == {"world": 4, "expert_parallel": 4}
        assert info["num_tensors"] == 3
        # 2 whole tensors + 4 expert shards.
        assert info["num_shards"] == 6
        assert info["total_bytes"] == state.nbytes()
        table = format_describe(info, limit=3).splitlines()
        assert "format_version=3 step=7" in table[0]
        assert table[1] == "mesh: world=4 expert_parallel=4"
        assert table[2].startswith("3 tensors in 6 shards")
        assert len(table) == 3 + 3 + 1 and table[-1].endswith("3 more shards")
        assert any("expert=0 rank=0" in row for row in table)

    def test_describe_verify_catches_damage(self, tmp_path):
        path = str(tmp_path / "ckpt")
        write_state(path, _state())
        victim = ShardReader(path).manifest["shards"][0]["file"]
        with open(os.path.join(path, victim), "r+b") as fh:
            fh.seek(-2, os.SEEK_END)
            fh.write(b"\x00\x01")
        describe_checkpoint(path)  # listing alone stays lazy
        with pytest.raises(CheckpointCorruptError):
            describe_checkpoint(path, verify=True)

    def test_overwrite_replaces_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "ckpt")
        write_state(path, _state(rng_seed=0))
        first = ShardReader(path)["model/w"].copy()
        write_state(path, _state(rng_seed=1))
        second = ShardReader(path)["model/w"]
        assert not np.array_equal(first, second)
        # No stale shards accumulate across overwrites.
        manifest = ShardReader(path).manifest
        on_disk = set(os.listdir(os.path.join(path, "shards")))
        named = {os.path.basename(e["file"]) for e in manifest["shards"]}
        assert on_disk == named
