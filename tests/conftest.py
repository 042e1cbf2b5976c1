"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.distributed import shm
from repro.sparse.topology import Topology
from repro.utils.rng import seed_all

# One moderate profile for everything: property tests are CPU-bound numpy,
# so the default deadline trips on slow CI machines.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def _deterministic_seed():
    """Every test starts from the same global RNG state."""
    seed_all(1234)
    yield


def reap_distributed_leaks() -> list:
    """Kill live child processes and unlink this process's ``rpd{pid}_*``
    shared-memory segments; returns a description of each one found.

    "No shared memory survives a run" is a suite-wide contract:
    ``tests/distributed/`` checks it after every test, the session check
    below covers the mp users outside that package
    (``tests/integration/``, ``tests/resilience/``).
    """
    leaks = []
    for proc in multiprocessing.active_children():
        leaks.append(f"live child process {proc.name} (pid {proc.pid})")
        proc.kill()
        proc.join(timeout=5.0)
    for name in shm.sweep_session(f"rpd{os.getpid()}_"):
        leaks.append(f"shared-memory segment /dev/shm/{name}")
    return leaks


@pytest.fixture(scope="session", autouse=True)
def _no_distributed_leak_survives_the_session():
    yield
    leaks = reap_distributed_leaks()
    assert not leaks, f"the test session left behind: {leaks}"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def random_topology(
    rng: np.random.Generator,
    block_rows: int = 5,
    block_cols: int = 6,
    block_size: int = 4,
    density: float = 0.5,
) -> Topology:
    """A random block mask topology (may be empty)."""
    mask = rng.random((block_rows, block_cols)) < density
    return Topology.from_block_mask(mask, block_size)


def shard_file(ckpt_dir: str, index: int = 0) -> str:
    """Path of the ``index``-th shard file a checkpoint's manifest names
    (for tests that damage a checkpoint on disk)."""
    from repro.checkpoint import ShardReader

    entry = ShardReader(ckpt_dir).manifest["shards"][index]
    return os.path.join(ckpt_dir, entry["file"])


def flip_byte(path: str, from_end: int = 5) -> None:
    """Invert one byte ``from_end`` bytes before the end of ``path`` —
    inside a shard's array payload, past its ``.npy`` header, so the
    shard still parses and only the manifest CRC can tell."""
    with open(path, "r+b") as fh:
        fh.seek(-from_end, os.SEEK_END)
        byte = fh.read(1)[0]
        fh.seek(-from_end, os.SEEK_END)
        fh.write(bytes([byte ^ 0xFF]))
