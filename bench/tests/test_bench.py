"""Schema, determinism and helper tests for the benchmark.

Run with ``python -m pytest bench/tests`` (not part of tier-1's
``testpaths``).  Every workload runs at ``--smoke`` size: fixed step and
request counts, a few seconds each.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import stats  # noqa: E402
from spans import Recorder  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    """Seed 1 twice and seed 2 once, per workload."""
    return {w: (run(w, 1), run(w, 1), run(w, 2)) for w in WORKLOADS}


# -- contract of BENCHMARK.json ------------------------------------------
def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert len(SPEC["workloads"]) == 4 and len(SPEC["end_to_end"]) == 8
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    # The driver's 4 + 22 x workloads runs must fit 3420 s with ~14 s of
    # set-up, set-up samples and checks around each timed window.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 14) <= 3420 * 0.85


@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema_and_checks(smoke_runs, workload):
    (summary, contract), _, _ = smoke_runs[workload]
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["correct"] is True and contract["failed"] == 0 and contract["attempted"] >= 1
    assert list(contract["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = contract["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert summary["samples"][m["name"]] >= 1
    assert set(summary["attempted"]) == set(summary["failed"]) == {"train_steps", "requests", "checks"}
    assert all(summary["checks"].values()), summary["checks"]
    assert summary["checks"]["itl_mode_rule"]
    assert summary["claim"] is None and list(summary)[-1] == "claim"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_counts_exactly(smoke_runs, workload):
    (a, _), (b, _), _ = smoke_runs[workload]
    assert a["counts"] == b["counts"]
    assert a["train_loss_final"] == b["train_loss_final"]
    assert a["realised"] == b["realised"]
    assert a["counts"]["tape_nodes_last_step"] == 0  # replayed, not taped
    assert (a["counts"]["allreduce_bytes_per_rank"] > 0) == (workload == "dp2_int8")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(smoke_runs, workload):
    (a, _), _, (c, _) = smoke_runs[workload]
    assert a["counts"]["requests"] == c["counts"]["requests"]  # smoke fixes the count
    assert a["counts"]["serve_tokens_total"] != c["counts"]["serve_tokens_total"]
    assert a["train_loss_final"] != c["train_loss_final"]


def test_traced_run_emits_every_layer_metric():
    summary, contract = run("small_decode", 1, trace=1)
    assert list(contract["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert contract["correct"] is True, summary["checks"]
    metrics = summary["metrics"]
    assert metrics["trace.coverage_train"] >= 0.90 and metrics["trace.coverage_serve"] >= 0.90
    assert metrics["serving.solo_mismatches"] == 0 and metrics["distributed.shm_leaks"] == 0
    assert metrics["autograd.lower.coverage"] >= 0.90
    assert metrics["distributed.allreduce_calls_per_step"] > 0
    assert summary["claim"] is None


def test_runs_leave_nothing_behind(smoke_runs):
    assert not os.path.exists(os.path.join(ROOT, ".bench_tmp"))
    status = subprocess.run(["git", "status", "--short", "benchmarks"], capture_output=True,
                            text=True, cwd=ROOT)
    assert status.stdout == ""  # in particular no rewritten BENCH_*.json


def test_reaper_stops_and_waits_for_every_child():
    """A live child, an orphaned grandchild and ``shared_memory``'s resource
    tracker (the process a ``dp2_int8`` run used to leave behind) are all
    gone, and waited for, when ``reap_children`` returns."""
    code = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {BENCH_DIR!r})\n"
        "import run\n"
        "run.adopt_orphans()\n"
        "from multiprocessing import shared_memory\n"
        "seg = shared_memory.SharedMemory(create=True, size=64)\n"
        "seg.close(); seg.unlink()\n"
        "subprocess.Popen(['sleep', '60'])\n"
        "subprocess.run(['sh', '-c', 'sleep 60 &'])\n"
        "assert len(run.child_pids()) == 3, run.child_pids()\n"
        "run.reap_children(grace_s=0.5)\n"
        "print('left', run.child_pids())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "left []"


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json + bench/: non-zero exit and no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_decode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- helpers against hand-computed cases ----------------------------------
def test_percentile():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110], 90) == 100
    assert stats.percentile([1, 2], 90) == pytest.approx(1.9)
    assert stats.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_weighted_percentile_equals_expanded_sample():
    values, weights = [5.0, 1.0, 3.0, 9.0], [2, 3, 0, 1]
    expanded = [5.0, 5.0, 1.0, 1.0, 1.0, 9.0]
    for q in (0, 25, 50, 90, 100):
        assert stats.weighted_percentile(values, weights, q) == pytest.approx(
            stats.percentile(expanded, q))


def test_chunked_rate_is_a_median_of_chunks():
    # Chunks of two: rates 10/2, 10/2, 10/20 (a stalled chunk), 10/2, 10/2.
    durations = [1, 1, 1, 1, 10, 10, 1, 1, 1, 1]
    assert stats.chunked_rate(durations, [5] * 10, 5) == 5.0
    assert sum([5] * 10) / sum(durations) < 2.0  # what total/wall would have said


def test_quartile_spread_and_worse_by():
    q1, med, q3, spread = stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, med, q3) == (2.75, 5.5, 8.25) and spread == pytest.approx(1.0)
    assert stats.worse_by(100, 110, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100, 110, "higher") == pytest.approx(-0.10)


def test_span_self_time_and_coverage():
    rec = Recorder()
    with rec.span("step", op="s0"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("c"):
                pass
    step, a, b, c = rec.spans
    assert [s.parent for s in rec.spans] == [-1, 0, 0, 2]
    assert {s.op for s in rec.spans} == {"s0"}
    assert rec.self_times("step")[0] == pytest.approx(step.duration - a.duration - b.duration)
    assert rec.coverage("step") == pytest.approx((a.duration + b.duration) / step.duration)
    assert len(rec.chrome_trace()["traceEvents"]) == 4
    rec.enabled = False
    with rec.span("ignored"):
        pass
    assert len(rec.spans) == 4


def test_speedometer_divides_by_the_local_probe_cost():
    from speed import Speedometer

    meter = Speedometer()
    ref = meter.REF_S
    meter.at, meter.cost = [0.0, 1.0, 2.0], [ref, 2 * ref, 4 * ref]
    assert meter.dilation(0.5) == pytest.approx(1.5)  # mean of the probes on either side
    assert meter.dilation(1.5) == pytest.approx(3.0)
    assert meter.dilation(-1.0) == pytest.approx(1.0)  # before the first / after the last:
    assert meter.dilation(9.0) == pytest.approx(4.0)   # the nearest probe alone
    assert meter.normalise([3.0, 3.0], [0.5, 1.5]) == pytest.approx([2.0, 1.0])
    meter.probe()
    assert len(meter.cost) == 4 and meter.spent == pytest.approx(meter.cost[-1])
