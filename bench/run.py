#!/usr/bin/env python3
"""Train-then-serve dMoE benchmark: one workload per process.

    python3 bench/run.py --workload ref_prefill --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload ref_prefill --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --all                  # every workload, one at a time

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()  # set-up is timed from here: before any heavy import

# One BLAS thread, pinned before NumPy loads: the step must not race a
# thread pool for the two cores, and run-to-run agreement depends on it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Measure this checkout's program, not whatever ``repro`` is installed.
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

#: Fresh processes whose set-up time is sampled per run (this one included).
SETUP_SAMPLES = 2
#: Fewest samples a p90 should rest on (ten beyond the percentile).
MIN_P90_SAMPLES = 100
#: Computed and printed by every run but not gated: tail percentiles of
#: too few samples (20 dp2_int8 steps in a phase; TTFT on a mode boundary).
UNGATED = ("train_step_ms_p90", "serve_ttft_ms_p90")
SMOKE_STEPS = 12
SMOKE_REQUESTS = 24


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@contextlib.contextmanager
def scratch_dir(tag: str):
    """Per-run directory inside the checkout for everything the run writes
    (compile cache, cc intermediates, checkpoints, traces); removed on exit."""
    base = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{tag}-", dir=base)
    os.environ["REPRO_LOWER_CACHE"] = os.path.join(path, "lower")  # cold compile
    os.environ["TMPDIR"] = path
    tempfile.tempdir = None
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)  # only succeeds once no other run is using it


def adopt_orphans() -> None:
    """Become the child subreaper, so a process orphaned below this one
    (a set-up sample's helper whose parent timed out) is reparented here
    and :func:`reap_children` finds it, not ``init``."""
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_pids() -> list:
    me, out = str(os.getpid()), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        with contextlib.suppress(OSError):
            with open(f"/proc/{pid}/stat") as f:
                # "pid (comm) state ppid ...": comm may hold spaces or ")"
                if f.read().rpartition(")")[2].split()[1] == me:
                    out.append(int(pid))
    return out


def reap_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The ``mp`` ranks are joined by ``close_dist``; what is left is
    ``multiprocessing``'s resource tracker, which ``shared_memory`` starts
    behind the scenes and which outlives its parent by design (it was the
    process the driver found after a ``dp2_int8`` run).  It ends when its
    pipe closes; anything still there after ``grace_s`` is killed."""
    mp = sys.modules.get("multiprocessing")
    if mp is not None:
        for proc in mp.active_children():
            proc.kill()
            proc.join()
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"), "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        with contextlib.suppress(OSError):
            os.close(tracker._fd)
        tracker._fd = None
    deadline = time.perf_counter() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid == 0:
            if time.perf_counter() > deadline:
                for child in child_pids():
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(child, 9)
            time.sleep(0.005)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest reaped child
    (the forked ``mp`` rank of ``dp2_int8``); Linux reports KiB."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0


def setup_only_sample(workload: str, seed: int) -> dict:
    """``{"setup_s", "raw"}`` of a fresh process that sets up and exits."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_setup_only(w, seed: int) -> dict:
    import phases
    from speed import Speedometer

    phases.require_native_rung()
    ts = phases.setup_train(w, seed)
    ready_s = time.perf_counter() - _T0
    ts.trainer.close_dist()
    ss = phases.setup_serve(w, seed, ts.dataset)
    ss.scheduler.close()
    raw = ready_s + ss.seconds
    return {"setup_s": raw / Speedometer().spot(), "raw": raw}


def run_untraced(w, seed: int, seconds: float, smoke: bool) -> dict:
    import phases
    from repro.autograd import stats as ag_stats
    from speed import Speedometer

    phases.require_native_rung()
    ts = phases.setup_train(w, seed)
    train_ready_s = time.perf_counter() - _T0
    speed = Speedometer()
    setup_dilation = speed.spot()
    trainer = ts.trainer
    first = phases.SETUP_STEPS + phases.WARMUP_STEPS
    warm_losses = [trainer.train_step(i) for i in range(phases.SETUP_STEPS, first)]

    # Smoke size is set by counts alone, so two same-seed runs do the same work.
    budget_s = float("inf") if smoke else seconds / 2
    train = phases.train_phase(
        w, trainer, first, budget_s,
        max_steps=SMOKE_STEPS if smoke else None, speed=speed,
    )
    tape_nodes = ag_stats.tape_nodes
    comm_bytes = (
        trainer.comm_log.total_bytes_per_rank("all_reduce") if trainer.comm_log else 0.0
    )
    trainer.close_dist()  # reap the mp rank: its RSS counts, and no process may linger

    ss = phases.setup_serve(w, seed, ts.dataset)
    serve = phases.serve_phase(
        w, seed, ss.scheduler, ts.dataset, budget_s,
        max_requests=SMOKE_REQUESTS if smoke else None, speed=speed,
    )
    failed_requests = phases.request_failures(ss.engine, serve)
    ss.scheduler.close()
    rss = peak_rss_mb()
    setup_raw = train_ready_s + ss.seconds
    setup = [{"setup_s": setup_raw / setup_dilation, "raw": setup_raw}]

    # The eager reference builds a second trainer, so it runs after the
    # timed phases and the RSS reading: it must neither warm caches for
    # set-up nor raise the high-water mark being reported.
    losses = ts.warm_losses + warm_losses + train.losses
    skipped = trainer.skipped_steps
    checks = phases.train_checks(losses, phases.reference_losses(w, seed), train, trainer)
    checks["itl_mode_rule"] = phases.itl_mode_ok(w, serve)
    checks["fallback_counters_zero"] = not any(phases.counters_zero().values())
    del trainer, ts, ss
    if not smoke:
        setup += [setup_only_sample(w.name, seed) for _ in range(SETUP_SAMPLES - 1)]

    def metrics(meter):
        key = "setup_s" if meter else "raw"
        return {
            "setup_s": statistics.median(s[key] for s in setup),
            **phases.train_metrics(w, train, meter),
            **phases.serve_metrics(serve, meter),
            "peak_rss_mb": rss,
        }

    gated = metrics(speed)
    ungated = {name: gated.pop(name) for name in UNGATED}
    wall_clock = metrics(None)
    for name in UNGATED:
        del wall_clock[name]
    ttft_n = sum(c.in_window for c in serve.completed)
    samples = {
        "setup_s": len(setup),
        "train_tokens_per_s": len(train.step_s),
        "train_step_ms_p50": len(train.step_s),
        "train_step_ms_p90": len(train.step_s),
        "serve_tokens_per_s": len(serve.gap_s),
        "serve_ttft_ms_p50": ttft_n,
        "serve_ttft_ms_p90": ttft_n,
        "serve_itl_ms_p50": sum(serve.carried),
        "serve_itl_ms_p90": sum(serve.carried),
        "peak_rss_mb": 1,
    }
    attempted = {
        "train_steps": len(losses), "requests": len(serve.completed), "checks": len(checks),
    }
    failed = {
        "train_steps": skipped + sum(not math.isfinite(x) for x in losses),
        "requests": failed_requests,
        "checks": sum(not ok for ok in checks.values()),
    }
    return {
        "workload": w.name, "seed": seed, "trace": 0,
        "metrics": gated, "samples": samples, "ungated": ungated,
        "wall_clock": wall_clock,
        "attempted": attempted, "failed": failed, "checks": checks,
        "counts": {
            "train_steps": len(train.step_s),
            "train_tokens": len(train.step_s) * w.tokens_per_step,
            "requests": len(serve.completed),
            "serve_tokens_timed": sum(serve.tokens),
            "serve_tokens_total": sum(c.request.max_new_tokens for c in serve.completed),
            "tape_nodes_last_step": tape_nodes,
            "allreduce_bytes_per_rank": comm_bytes,
        },
        "realised": {"prefill_step_share": serve.prefill_step_share},
        "machine": speed.summary(),
        "train_loss_final": losses[-1],
        "claim": None,
    }


def print_report(summary: dict, spec: dict) -> None:
    """Every metric by name with its unit, sample count and the checks."""
    kind = "per_layer" if summary["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    print(f"== {summary['workload']}  seed={summary['seed']}  trace={summary['trace']}")
    wall = summary.get("wall_clock", {})
    ungated = summary.get("ungated", {})
    for name, value in {**summary["metrics"], **ungated}.items():
        n = summary.get("samples", {}).get(name)
        few = n is not None and name.endswith("_p90") and n < MIN_P90_SAMPLES
        note = "" if n is None else f"  (n={n}{', fewer than 100 samples' if few else ''})"
        if name in wall:
            note += f"  [wall clock {wall[name]:.4f}]"
        if name in ungated:
            note += "  [not gated]"
        print(f"  {name:<40} {value:>14.4f} {units.get(name, 'ms')}{note}")
    for group in ("attempted", "failed", "checks", "counts", "realised", "machine", "calib"):
        if group in summary:
            print(f"  {group}: {json.dumps(summary[group])}")
    if "train_loss_final" in summary:
        print(f"  train_loss_final: {summary['train_loss_final']!r}")
    for line in summary.get("notes", ()):
        print(f"  {line}")


def contract_line(summary: dict, spec: dict) -> str:
    kind = "per_layer" if summary["trace"] else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        metrics[m["name"]] = {"value": summary["metrics"][m["name"]], "unit": m["unit"]}
    extra = set(summary["metrics"]) - set(metrics)
    if extra:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    failed = sum(summary["failed"].values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(summary["attempted"].values()),
        "failed": failed,
        "metrics": metrics,
    })


def run_all(spec: dict, seed: int, seconds: int) -> int:
    """Every workload, end to end then traced, each in a fresh process and
    one at a time; prints each report and returns the worst exit code."""
    worst = 0
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            )
            worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    adopt_orphans()
    try:
        return run(argv)
    finally:
        reap_children()


def run(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[wl["name"] for wl in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, then its traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="fixed small step/request counts instead of --seconds (tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help="also keep the Chrome trace of a traced run here")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(spec, args.seed, int(args.seconds))
    if args.workload is None:
        parser.error("--workload (or --all) is required")

    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    with scratch_dir(w.name) as tmp:
        if args.setup_only:
            print(json.dumps(run_setup_only(w, args.seed)))
            return 0
        if args.trace:
            import layers

            summary = layers.run_traced(
                w, args.seed, args.seconds, args.smoke, tmp, args.trace_out
            )
        else:
            summary = run_untraced(w, args.seed, args.seconds, args.smoke)
    print_report(summary, spec)
    print(json.dumps(summary, default=float))
    print(contract_line(summary, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
