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

Results land in ``harness.RESULT_DIR`` (a per-process temp dir); no
``BENCH_*.json`` may appear under ``benchmarks/``.
"""

import glob
import importlib
import os
import shutil
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")


class _PassthroughBenchmark:
    """Minimal stand-in for the pytest-benchmark fixture: one plain call."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


def _smoke_result(bench, name):
    """Path a smoke run writes result ``name`` to."""
    return os.path.join(bench("harness").RESULT_DIR, name)


@pytest.fixture(scope="module")
def bench(request):
    """Import benchmark modules in smoke mode, restoring state afterwards."""
    os.environ["REPRO_BENCH_SMOKE"] = "1"
    sys.path.insert(0, BENCH_DIR)
    # Benchmark modules must see the smoke flag at import time; drop any
    # previously imported copies (and the harness run caches with them).
    stale = [
        m
        for m in sys.modules
        if m.startswith(
            (
                "harness",
                "test_fig",
                "test_step",
                "test_ckpt",
                "test_serving",
                "test_dist",
            )
        )
    ]
    for m in stale:
        del sys.modules[m]

    def load(name):
        return importlib.import_module(name)

    # A fresh per-process temp dir: no earlier or concurrent run's
    # results can satisfy (or be deleted under) this run's assertions.
    result_dir = load("harness").RESULT_DIR
    assert os.listdir(result_dir) == []
    yield load
    shutil.rmtree(result_dir, ignore_errors=True)
    sys.path.remove(BENCH_DIR)
    os.environ.pop("REPRO_BENCH_SMOKE", None)
    for m in [
        m
        for m in sys.modules
        if m.startswith(
            (
                "harness",
                "test_fig",
                "test_step",
                "test_ckpt",
                "test_serving",
                "test_dist",
            )
        )
    ]:
        del sys.modules[m]
    assert not glob.glob(os.path.join(BENCH_DIR, "BENCH_*.json")), (
        "a benchmark run wrote its results into benchmarks/"
    )


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


def test_step_memory_smoke(bench):
    """Steady-state step benchmark: bit-identical losses and the
    allocation-reduction floor must hold at smoke sizes."""
    mod = bench("test_step_memory")
    assert mod.SMOKE
    mod.test_step_latency_and_allocations(_PassthroughBenchmark())


def test_step_replay_smoke(bench):
    """Captured-step-graph benchmark: replay must be bit-identical and
    tape-free on replayed steps, with one capture and no fallback (its
    speedup over eager is recorded, not gated); emits
    BENCH_replay.json."""
    mod = bench("test_step_replay")
    assert mod.SMOKE
    mod.test_step_replay(_PassthroughBenchmark())
    assert os.path.exists(_smoke_result(bench, "BENCH_replay.json"))


def test_step_lower_smoke(bench):
    """Native-lowering benchmark: generated-C execution must stay
    bit-identical to eager and replay, cover >= 90% of the replay
    records (grouped-GEMM, dense-GEMM, and router kernels included),
    run faster than the interleaved replay interpreter, and emit
    BENCH_lower.json."""
    mod = bench("test_step_lower")
    assert mod.SMOKE
    mod.test_step_lower(_PassthroughBenchmark())
    assert os.path.exists(_smoke_result(bench, "BENCH_lower.json"))


def test_ckpt_stream_smoke(bench):
    """Streaming checkpoint benchmark: async checkpoints must be
    byte-identical to synchronous ones, written off the training thread,
    with losses bit-equal; emits BENCH_ckpt.json with the measured
    step-boundary stall delta."""
    mod = bench("test_ckpt_stream")
    assert mod.SMOKE
    mod.test_ckpt_stream(_PassthroughBenchmark())
    assert os.path.exists(_smoke_result(bench, "BENCH_ckpt.json"))


def test_serving_smoke(bench):
    """Serving benchmark: KV-cached decode must emit the same greedy
    tokens as the uncached baseline at >= the tokens/s speedup floor,
    the scheduler must drain a mixed-length stream with ordered latency
    percentiles, and int8 experts must hold the byte-ratio and
    perplexity-delta bounds; emits BENCH_serving.json."""
    mod = bench("test_serving")
    assert mod.SMOKE
    mod.test_serving(_PassthroughBenchmark())
    assert os.path.exists(_smoke_result(bench, "BENCH_serving.json"))


def test_dist_overlap_smoke(bench):
    """Comm–compute overlap benchmark over real forked ranks: the
    overlapped dispatch must be bit-identical to the serialized one and
    hide the straggler's token-exchange wait behind the local plan
    build; emits BENCH_dist.json."""
    mod = bench("test_dist_overlap")
    assert mod.SMOKE
    mod.test_dist_overlap(_PassthroughBenchmark())
    assert os.path.exists(_smoke_result(bench, "BENCH_dist.json"))


def test_step_trace_smoke(bench):
    """Traced step benchmark: emits BENCH_trace.json with the per-phase
    breakdown and asserts the Chrome-trace exporter produces schema-valid
    JSON (ph/ts/dur on every complete event, strictly nested spans) while
    leaving losses and parameters bit-identical."""
    mod = bench("test_step_trace")
    assert mod.SMOKE
    mod.test_traced_step_breakdown(_PassthroughBenchmark())
    assert os.path.exists(_smoke_result(bench, "BENCH_trace.json"))
