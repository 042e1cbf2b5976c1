#!/usr/bin/env python3
"""A/A check: do two sets of runs of the *same* code agree within the
benchmark's own bounds?

    python3 bench/noise.py                       # 2 sets x 5 runs per workload
    python3 bench/noise.py --runs 5 --markdown bench/NOISE.md

Runs are made one at a time, each a fresh ``bench/run.py`` process.  Pair
``i`` of a workload runs seed ``base + i`` once for set A and once for set
B, the order within a pair flipping from pair to pair, so both sets see
the same seeds and neither is always first.  For every
end-to-end metric x workload pair it prints both set medians and
quartiles, the share by which B is worse than A, the quartile spread of
all runs pooled (the figure the driver gates), and the bound.  Exit code
1 if any pair's set medians differ by more than half its bound or any
pooled spread (``setup_s`` excepted, as in the driver) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    summary, contract = json.loads(lines[-2]), json.loads(lines[-1])
    if not contract["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run: {summary['failed']}")
    return summary


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set per workload (>= 5)")
    parser.add_argument("--seed", type=int, default=100, help="first seed")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="restrict to these workloads")
    parser.add_argument("--markdown", help="also write the report to this file")
    parser.add_argument("--json-out", help="also write every run's summary to this file")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    names = args.workload or [w["name"] for w in spec["workloads"]]

    out = []
    emit = out.append
    emit("# A/A noise check")
    emit("")
    emit(f"- nproc: {os.cpu_count()}, CPU: {cpu_model()}")
    emit(f"- {args.runs} runs per set, `--seconds {args.seconds}`, seeds "
         f"{args.seed}..{args.seed + args.runs - 1}, sets alternate run by run")
    emit("- `B worse` = share of A's median by which B's median is worse (negative: better); "
         "gate: at most half the bound")
    emit("- `spread` = (Q3 - Q1) / median over all runs of both sets, "
         "`statistics.quantiles(n=4)`; gate: at most the bound (not applied to `setup_s`)")
    emit("")

    failures = []
    every_run = []
    t_start = time.time()
    for name in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for label in order:
                summary = one_run(name, args.seed + i, args.seconds)
                sets[label].append(summary)
                every_run.append({"set": label, **summary})
                print(f"[{time.time() - t_start:6.0f}s] {name} seed {args.seed + i} "
                      f"set {label} done", file=sys.stderr, flush=True)
        emit(f"## {name}")
        emit("")
        emit("| metric | unit | A median [Q1, Q3] | B median [Q1, Q3] | B worse | spread | bound | ok |")
        emit("|---|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            a = [s["metrics"][m["name"]] for s in sets["A"]]
            b = [s["metrics"][m["name"]] for s in sets["B"]]
            a_q1, a_med, a_q3, _ = stats.quartile_spread(a)
            b_q1, b_med, b_q3, _ = stats.quartile_spread(b)
            worse = stats.worse_by(a_med, b_med, m["better"])
            spread = stats.quartile_spread(a + b)[3]
            ok = abs(worse) <= m["bound"] / 2 and (m["name"] == "setup_s" or spread <= m["bound"])
            if not ok:
                failures.append(f"{name}/{m['name']}")
            emit(f"| `{m['name']}` | {m['unit']} | {a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}] | "
                 f"{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] | {worse:+.2%} | {spread:.2%} | "
                 f"{m['bound']:.2f} | {'yes' if ok else 'NO'} |")
        emit("")
        emit("Machine dilation per run (median / max of the interleaved speed probes; 1.0 = quiet):")
        emit("")
        for label in ("A", "B"):
            cells = ", ".join(
                f"{s['machine']['dilation_p50']:.2f}/{s['machine']['dilation_max']:.2f}"
                for s in sets[label]
            )
            emit(f"- set {label}: {cells}")
        emit("")
        emit("Same runs read by the wall clock (not speed-normalised), spread of all runs: " + ", ".join(
            f"`{m['name']}` {stats.quartile_spread([s['wall_clock'][m['name']] for s in sets['A'] + sets['B']])[3]:.1%}"
            for m in spec["end_to_end"] if m["name"] != "peak_rss_mb"))
        emit("")
    emit(f"Result: {'PASS' if not failures else 'FAIL: ' + ', '.join(failures)} "
         f"({len(names) * len(spec['end_to_end'])} pairs, {time.time() - t_start:.0f} s)")
    report = "\n".join(out) + "\n"
    print(report)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(every_run, f)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
