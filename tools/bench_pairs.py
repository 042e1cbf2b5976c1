#!/usr/bin/env python3
"""Interleaved pairs of ``bench/run.py``: a parent commit against this
checkout, with the statistics a change log quotes.

Wall-clock numbers drift between sessions far more than a change moves
them, so a comparison is only worth its pairs: each pair runs one
workload on both sides back to back, with the same seed, and the side
that runs first alternates from pair to pair.  The parent is exported
with ``git archive`` into a temporary directory; each side gets its own
``REPRO_LOWER_CACHE``, and runs once untimed (``--smoke``) before the
first pair.  ``bench/run.py`` is run as a black box, in its own
checkout, exactly as ``BENCHMARK.json`` declares it.

Besides the metrics the bench prints, each run's proportional set size
(PSS, which splits shared pages between the processes that map them) is
summed over its whole process tree from ``/proc/<pid>/smaps_rollup``
every 0.1 s; its peak is reported as ``pss_peak_mb``, beside the
bench's own ``peak_rss_mb``.

The table printed at the end has, per workload and metric, the median
and interquartile range of the parent's runs, the change's median, their
ratio and the number of pairs in which the change was better.
``--record PR`` appends the raw runs to the committed ``BENCH_pairs.json``,
one row per workload and side, labelled with the PR, the parent commit, the
Python and NumPy versions and the machine: its CPU count and the bench's
own calibration (``bench/layers.calibrate``: single-thread sgemm GFLOP/s
and copy GB/s, taken once before the pairs).

    python tools/bench_pairs.py HEAD --workloads small_decode
    python tools/bench_pairs.py HEAD~1 --seed0 5101
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(REPO, "BENCH_pairs.json")
SIDES = ("parent", "change")
#: How often a run's tree PSS is sampled, in seconds.
INTERVAL = 0.1
#: What one run records beside the bench's end-to-end metrics.
EXTRA = {"pss_peak_mb": {"unit": "MB", "better": "lower"}}


def load_spec(root: str = REPO) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def export(rev: str, dest: str) -> str:
    """``rev``'s committed files under ``dest``; returns its full sha."""
    sha = subprocess.run(
        ["git", "rev-parse", rev], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=REPO, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")
    return sha


# ----------------------------------------------------------------------
# Memory, charged from outside the run
# ----------------------------------------------------------------------
def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids += [int(k) for k in f.read().split()]
    except OSError:
        pass
    return kids


def tree_pss_kb(pid: int) -> int:
    """PSS of ``pid`` and every descendant, in kB (0 for a process that
    is gone)."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        todo += _children(p)
        try:
            with open(f"/proc/{p}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            pass
    return total


def run_bench(side_dir: str, cache: str, workload: str, seed: int, seconds: float,
              smoke: bool = False) -> dict:
    """One ``bench/run.py`` run in ``side_dir``: its contract metrics,
    failed operations, median machine dilation and peak tree PSS."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    env = dict(os.environ, REPRO_LOWER_CACHE=cache)
    with tempfile.TemporaryFile("w+") as out:
        proc = subprocess.Popen(cmd, cwd=side_dir, env=env, stdout=out,
                                stderr=subprocess.DEVNULL, text=True)
        peak = 0
        while proc.poll() is None:
            peak = max(peak, tree_pss_kb(proc.pid))
            time.sleep(INTERVAL)
        out.seek(0)
        lines = out.read().strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {side_dir} exited {proc.returncode}")
    contract, summary = json.loads(lines[-1]), json.loads(lines[-2])
    metrics = {k: v["value"] for k, v in contract["metrics"].items()}
    metrics["pss_peak_mb"] = peak / 1024.0
    return {
        "metrics": metrics,
        "failed": contract["failed"],
        "dilation_p50": summary.get("machine", {}).get("dilation_p50"),
    }


def calibrate() -> dict:
    """The machine fingerprint: CPU count and the bench's calibration."""
    code = ("import json, sys; sys.path[:0] = ['bench', 'src']; import layers; "
            "print(json.dumps(layers.calibrate()))")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, check=True,
                         capture_output=True, text=True).stdout
    calib = json.loads(out.strip().splitlines()[-1])
    return {"nproc": os.cpu_count(), "sgemm_gflops": calib["sgemm_gflops"],
            "memcpy_gb_s": calib["memcpy_gb_s"]}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(xs: Sequence[float]) -> tuple:
    """``(q1, median, q3)``, by linear interpolation between order
    statistics (NumPy's default percentile)."""
    s = sorted(xs)
    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)


def summarize(parent: Sequence[dict], change: Sequence[dict], better: Dict[str, str]) -> list:
    """One row per metric over paired runs (``parent[i]`` with
    ``change[i]``): ``(metric, parent q1, parent median, parent q3,
    change median, ratio, pairs better, pairs)``.  A tie is not
    better."""
    rows = []
    for name, direction in better.items():
        ps = [r["metrics"][name] for r in parent]
        cs = [r["metrics"][name] for r in change]
        q1, med, q3 = quartiles(ps)
        cmed = statistics.median(cs)
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(ps, cs))
        rows.append((name, q1, med, q3, cmed, cmed / med if med else float("nan"), wins, len(ps)))
    return rows


def _num(x: float) -> str:
    return f"{x:.4g}"


def table(results: Dict[str, Dict[str, List[dict]]], better: Dict[str, str]) -> str:
    """The markdown table: one line per workload and metric."""
    lines = [
        "| workload (pairs) | metric | parent median [IQR] | change median | change/parent | change better in |",
        "|---|---|---|---|---|---|",
    ]
    for workload, sides in results.items():
        for name, q1, med, q3, cmed, ratio, wins, n in summarize(
            sides["parent"], sides["change"], better
        ):
            lines.append(
                f"| `{workload}` ({n}) | `{name}` | {_num(med)} [{_num(q1)}–{_num(q3)}] "
                f"| {_num(cmed)} | ×{ratio:.3f} | {wins}/{n} |"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
ROW_FIELDS = {"pr", "parent", "python", "numpy", "machine", "workload", "side", "seeds",
              "first", "metrics", "failed", "dilation_p50"}
MACHINE_FIELDS = {"nproc", "sgemm_gflops", "memcpy_gb_s"}


def ledger_rows(pr: int, parent: str, machine: dict, seeds: List[int],
                results: Dict[str, Dict[str, List[dict]]]) -> List[dict]:
    import numpy as np

    rows = []
    for workload, sides in results.items():
        for side in SIDES:
            runs = sides[side]
            rows.append({
                "pr": pr, "parent": parent, "python": "%d.%d" % sys.version_info[:2],
                "numpy": np.__version__, "machine": machine, "workload": workload,
                "side": side, "seeds": seeds,
                # Whether this side ran first in each pair.
                "first": [(i % 2 == 0) == (side == "parent") for i in range(len(runs))],
                "metrics": {k: [r["metrics"][k] for r in runs] for k in runs[0]["metrics"]},
                "failed": [r["failed"] for r in runs],
                "dilation_p50": [r["dilation_p50"] for r in runs],
            })
    return rows


def record(rows: List[dict], path: str = LEDGER) -> None:
    """Append ``rows`` to the ledger."""
    old = []
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
    with open(path, "w") as f:
        json.dump(old + rows, f, indent=1)
        f.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit to compare this checkout against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seed0", type=int, default=1001, help="pair i runs seed seed0 + i")
    parser.add_argument("--record", type=int, metavar="PR")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if not set(workloads) <= set(names):
        parser.error(f"workloads are {names}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update({k: v["better"] for k, v in EXTRA.items()})
    seeds = [args.seed0 + i for i in range(args.pairs)]
    machine = calibrate()
    print(f"machine: {json.dumps(machine)}", flush=True)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = {"parent": os.path.join(tmp, "parent"), "change": REPO}
        os.mkdir(dirs["parent"])
        sha = export(args.parent, dirs["parent"])
        caches = {side: os.path.join(tmp, f"cache-{side}") for side in SIDES}
        for side in SIDES:
            run_bench(dirs[side], caches[side], workloads[0], 0, spec["run_seconds"],
                      smoke=True)
        results: Dict[str, Dict[str, List[dict]]] = {}
        for workload in workloads:
            results[workload] = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_bench(dirs[side], caches[side], workload, seed,
                                    spec["run_seconds"])
                    results[workload][side].append(run)
                    print(f"{workload} seed {seed} {side}: "
                          f"train_step_ms_p50={run['metrics']['train_step_ms_p50']:.4g} "
                          f"pss_peak_mb={run['metrics']['pss_peak_mb']:.4g} "
                          f"failed={run['failed']}", flush=True)
    print(f"parent {sha}, seeds {seeds[0]}–{seeds[-1]}, pairs alternate which side runs first")
    print(table(results, better))
    if args.record is not None:
        record(ledger_rows(args.record, sha, machine, seeds, results))
        print(f"recorded {2 * len(workloads)} rows in {os.path.relpath(LEDGER, REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
