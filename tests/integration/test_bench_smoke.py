"""Benchmark smoke canaries: run the Fig-7 / Fig-9 benchmarks at tiny
sizes inside tier-1 pytest.

The full benchmark sweeps under ``benchmarks/`` take minutes and are not
collected by tier-1 (``testpaths = tests``), so a kernel regression that
only manifests on the benchmark code paths — the dispatch layer, the
step-time model, the end-to-end dMoE training loop — would otherwise go
unnoticed until someone runs the sweep.  These tests import the
benchmark modules with ``REPRO_BENCH_SMOKE=1`` (the same switch as
``pytest --smoke`` in the benchmarks suite) and execute each test
function with a stub ``benchmark`` fixture that just calls through.

``benchmarks/`` reproduces the paper and nothing else (guarded by
``tests/utils/test_benchmarks_layout.py``): what times this repo's own
machinery lives in ``bench/``, what asserts its contracts in ``tests/``.
"""

import importlib
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")


class _PassthroughBenchmark:
    """Minimal stand-in for the pytest-benchmark fixture: one plain call."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


def _purge():
    """Benchmark modules read the smoke flag at import time (and hold the
    harness run caches): drop every imported copy."""
    for m in [m for m in sys.modules if m.startswith(("harness", "test_fig"))]:
        del sys.modules[m]


@pytest.fixture(scope="module")
def bench():
    """Import benchmark modules in smoke mode; the caller's environment,
    ``sys.path`` and module table come back as they were."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_BENCH_SMOKE", "1")
        mp.syspath_prepend(BENCH_DIR)
        _purge()
        yield importlib.import_module
        _purge()


def test_fig9_modeled_relative_throughput_smoke(bench):
    mod = bench("test_fig9_blocksparse_throughput")
    mod.test_fig9_modeled_relative_throughput(_PassthroughBenchmark())


def test_fig9_wallclock_kernels_smoke(bench):
    mod = bench("test_fig9_blocksparse_throughput")
    mod.test_fig9_wallclock_numpy_kernels(_PassthroughBenchmark())


def test_fig9_grouped_vs_blocked_smoke(bench):
    mod = bench("test_fig9_blocksparse_throughput")
    assert mod.SMOKE
    mod.test_fig9_wallclock_grouped_vs_blocked(_PassthroughBenchmark())


def test_fig7_step_time_model_smoke(bench):
    mod = bench("test_fig7_e2e_dmoe")
    mod.test_fig7_tutel_speedups(_PassthroughBenchmark())


def test_fig7_quality_training_smoke(bench):
    mod = bench("test_fig7_e2e_dmoe")
    assert mod.STEPS <= 10, "smoke mode must shrink the training sweep"
    mod.test_fig7_dmoe_vs_dense_quality_speedup(_PassthroughBenchmark())
