"""Async background writer: byte-identity, overlap, backpressure,
failure surfacing.

The async path must be *indistinguishable on disk* from the sync path
(one serializer, deterministic shard order, sorted-keys manifest) while
actually running off the training thread — and a failed background
write must surface in the metrics/counters without killing training.
"""

import filecmp
import os
import threading
import time

import numpy as np
import pytest

from repro.checkpoint import (
    AsyncCheckpointWriter,
    CheckpointError,
    CheckpointManager,
    CheckpointState,
    build_state,
    load_state,
    write_state,
)
from repro.nn import Linear, Sequential
from repro.observability.metrics import registry
from repro.resilience import counters


def _state(seed=0):
    rng = np.random.default_rng(seed)
    return CheckpointState(
        arrays={
            "model/w": rng.standard_normal((8, 8)).astype(np.float32),
            "model/experts.w": rng.standard_normal((4, 2, 3)).astype(np.float32),
        },
        meta={
            "step": 3,
            "extra": {},
            "mesh": {"world": 2, "expert_parallel": 2},
        },
        expert_axes={"model/experts.w": (0, 4)},
    )


def _dir_bytes(path):
    """Map of relative file path -> content bytes for a checkpoint dir."""
    out = {}
    for root, _, files in os.walk(path):
        for f in files:
            p = os.path.join(root, f)
            out[os.path.relpath(p, path)] = open(p, "rb").read()
    return out


class TestByteIdentity:
    def test_async_equals_sync_sharded(self, tmp_path):
        state = _state()
        sync_path = str(tmp_path / "sync")
        async_path = str(tmp_path / "async")
        write_state(sync_path, state)
        with AsyncCheckpointWriter() as w:
            w.submit(async_path, state)
        a, b = _dir_bytes(sync_path), _dir_bytes(async_path)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between sync and async"


class TestWorkerThread:
    def test_write_happens_off_caller_thread(self, tmp_path):
        with AsyncCheckpointWriter() as w:
            w.submit(str(tmp_path / "ckpt"), _state())
            w.drain()
            assert w.worker_ident is not None
            assert w.worker_ident != threading.get_ident()
        assert w.written == 1 and w.failed == 0

    def test_copy_snapshot_shields_against_mutation(self, tmp_path):
        """The ``copy=True`` snapshot discipline: training (or a rewind)
        mutating the live arrays after submit must not leak into the
        checkpoint."""
        model = Sequential(Linear(4, 8, rng=0), Linear(8, 2, rng=1))
        state = build_state(model, step=1, copy=True)
        expected = {k: a.copy() for k, a in state.arrays.items()}
        path = str(tmp_path / "ckpt")
        with AsyncCheckpointWriter() as w:
            w.submit(path, state)
            for p in model.parameters():  # "training continues"
                p.data += 100.0
        loaded = load_state(path)
        for key, arr in expected.items():
            np.testing.assert_array_equal(loaded.arrays[key], arr)

    def test_backpressure_blocks_not_drops(self, tmp_path):
        before = registry().counter("ckpt/backpressure_waits").value
        slow = threading.Event()
        orig_write = AsyncCheckpointWriter._write

        def slow_write(self, job):
            slow.wait(timeout=5.0)
            return orig_write(self, job)

        w = AsyncCheckpointWriter(queue_size=1)
        try:
            w._write = slow_write.__get__(w)
            w.submit(str(tmp_path / "a"), _state(0))  # taken by worker
            w.submit(str(tmp_path / "b"), _state(1))  # fills the queue
            t0 = time.perf_counter()
            release = threading.Timer(0.1, slow.set)
            release.start()
            w.submit(str(tmp_path / "c"), _state(2))  # must block
            waited = time.perf_counter() - t0
            release.join()
        finally:
            slow.set()
            w.close()
        assert w.written == 3
        assert waited >= 0.05, "third submit should have hit backpressure"
        assert registry().counter("ckpt/backpressure_waits").value > before


class TestFailureSurfacing:
    def test_failed_write_is_surfaced_not_fatal(self, tmp_path):
        reg = registry()
        fail_before = reg.counter("ckpt/async_write_failures").value
        res_before = counters.get("ckpt_write_failures")

        def bomb(key):
            raise RuntimeError("injected mid-shard death")

        path = str(tmp_path / "ckpt")
        with AsyncCheckpointWriter() as w:
            w.submit(path, _state(), fault_hook=bomb)
            w.drain()
            assert w.failed == 1 and w.written == 0
            assert w.last_error_path == path
            with pytest.raises(CheckpointError, match="failed"):
                w.check()
            assert w.last_error is None  # check() clears
        assert reg.counter("ckpt/async_write_failures").value == fail_before + 1
        assert counters.get("ckpt_write_failures") == res_before + 1
        # The torn artifact is on disk and manifest-less.
        assert os.path.isdir(path)
        assert not os.path.exists(os.path.join(path, "manifest.json"))

    def test_manager_not_registered_on_failure(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "run"))

        def bomb(key):
            raise RuntimeError("boom")

        with AsyncCheckpointWriter() as w:
            w.submit(mgr.path_for(4), _state(), step=4, manager=mgr, fault_hook=bomb)
            w.drain()
        assert mgr.steps == []

    def test_manager_registered_on_success(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "run"))
        with AsyncCheckpointWriter() as w:
            w.submit(mgr.path_for(4), _state(), step=4, metric=1.0, manager=mgr)
            w.drain()
        assert mgr.steps == [4]
        assert mgr.best == {"step": 4, "metric": 1.0}

    def test_submit_after_close_raises(self, tmp_path):
        w = AsyncCheckpointWriter()
        w.close()
        with pytest.raises(CheckpointError, match="closed"):
            w.submit(str(tmp_path / "x"), _state())

    def test_pending_counts_down(self, tmp_path):
        w = AsyncCheckpointWriter()
        w.submit(str(tmp_path / "a"), _state())
        w.drain()
        assert w.pending == 0
        w.close()
