"""The wall-clock ledger, ``BENCH_pairs.json``, and the statistics of
``tools/bench_pairs.py``.

No bench runs here: the tool's statistics are checked on canned runs, the
ledger's rows against the schema the tool writes, and the ledger is never
written (``record`` writes a temporary file).
"""

import importlib.util
import json
import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO, "tools", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values, name="train_step_ms_p50"):
    return [{"metrics": {name: v}} for v in values]


def test_quartiles_interpolate_like_numpy():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_pairs_in_each_metrics_direction():
    parent = [{"metrics": {"ms": p, "rate": r}} for p, r in
              [(10.0, 100.0), (12.0, 90.0), (11.0, 95.0), (13.0, 80.0), (10.0, 100.0)]]
    change = [{"metrics": {"ms": c, "rate": r}} for c, r in
              [(9.0, 110.0), (12.0, 85.0), (10.0, 99.0), (14.0, 80.0), (9.5, 101.0)]]
    rows = bench_pairs.summarize(parent, change, {"ms": "lower", "rate": "higher"})
    ms, rate = rows
    # Parent quartiles of 10, 10, 11, 12, 13; change median 10; a tie
    # (pair 2 of "ms", pair 4 of "rate") is not a win.
    assert ms == ("ms", 10.0, 11.0, 12.0, 10.0, 10.0 / 11.0, 3, 5)
    assert rate[0] == "rate" and rate[4] == 99.0 and rate[6:] == (3, 5)


def test_table_is_the_change_log_table():
    results = {"small_decode": {"parent": _runs([28.0, 28.2, 27.9]),
                                "change": _runs([25.0, 25.5, 25.4])}}
    lines = bench_pairs.table(results, {"train_step_ms_p50": "lower"}).splitlines()
    assert lines[0] == (
        "| workload (pairs) | metric | parent median [IQR] | change median "
        "| change/parent | change better in |"
    )
    assert lines[2] == (
        "| `small_decode` (3) | `train_step_ms_p50` | 28 [27.95–28.1] | 25.4 "
        "| ×0.907 | 3/3 |"
    )


def test_record_appends_rows(tmp_path):
    machine = {"nproc": 2, "sgemm_gflops": 100.0, "memcpy_gb_s": 10.0}
    results = {"small_decode": {
        side: [{"metrics": {"train_step_ms_p50": 1.0}, "failed": 0, "dilation_p50": 1.0}]
        for side in bench_pairs.SIDES
    }}
    path = str(tmp_path / "pairs.json")
    rows = bench_pairs.ledger_rows(7, "0" * 40, machine, [5], results)
    bench_pairs.record(rows, path)
    bench_pairs.record(rows, path)
    with open(path) as f:
        assert json.load(f) == rows + rows


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps_rollup"), reason="no smaps_rollup")
def test_tree_pss_counts_this_process():
    assert bench_pairs.tree_pss_kb(os.getpid()) > 0


def test_ledger_rows_follow_the_schema():
    if not os.path.exists(bench_pairs.LEDGER):
        pytest.skip("no wall-clock ledger recorded yet")
    with open(bench_pairs.LEDGER) as f:
        rows = json.load(f)
    assert rows
    spec = bench_pairs.load_spec()
    metrics = {m["name"] for m in spec["end_to_end"]} | set(bench_pairs.EXTRA)
    workloads = {w["name"] for w in spec["workloads"]}
    sides = {}
    for row in rows:
        assert set(row) == bench_pairs.ROW_FIELDS, row.get("pr")
        assert set(row["machine"]) == bench_pairs.MACHINE_FIELDS
        assert re.fullmatch("[0-9a-f]{40}", row["parent"])
        assert row["workload"] in workloads and row["side"] in bench_pairs.SIDES
        n = len(row["seeds"])
        assert set(row["metrics"]) == metrics
        assert all(len(v) == n for v in row["metrics"].values())
        assert len(row["failed"]) == len(row["dilation_p50"]) == len(row["first"]) == n
        key = (row["pr"], row["parent"], row["workload"], tuple(row["seeds"]))
        sides.setdefault(key, {})[row["side"]] = row
    for pair in sides.values():
        # Both sides of every batch, taking turns to run first.
        assert set(pair) == set(bench_pairs.SIDES)
        assert [not f for f in pair["parent"]["first"]] == pair["change"]["first"]
