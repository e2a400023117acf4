"""Tests of the benchmark itself, in its reduced-size mode.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def small(workload, trace, seed=3, seconds=1):
    proc = run(
        "--workload", workload, "--seed", str(seed), "--seconds",
        str(seconds), "--trace", str(trace), "--size", "small",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_match_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(metrics.WORKLOADS)
    for section, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
        assert listed == {k: v[:2] for k, v in table.items()}
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = small(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["details"]["error_rate"]["value"] == 0.0
    assert report["meta"]["metrics_registry_enabled"] is False
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_traced_counts_match_untraced_and_repeat(workload):
    first_report, first = small(workload, trace=1)
    again_report, again = small(workload, trace=1)
    assert first["correct"] and again["correct"]
    assert set(first["metrics"]) == set(metrics.PER_LAYER)
    for report in (first_report, again_report):
        assert report["details"]["determinism"] == "ok"
    for key in ("ledger_digest", "count_digest"):
        assert first_report["details"][key] == again_report["details"][key]
    dump = ROOT / first_report["details"]["trace_file"]
    spans = json.loads(dump.read_text())["spans"]
    assert spans and all(
        {"id", "name", "start", "end", "parent", "request"} <= set(s)
        for s in spans
    )


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("--workload", "knn-single", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_oracle_accepts_any_tie_at_the_kth_distance():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
    live = oracle.LiveSet(base)
    query = np.zeros(2)
    # ids 1 and 2 tie at the 2nd distance: either completes the answer
    for second in (1, 2):
        assert oracle.check_knn(live, query, 2, [0, second], [0.0, 1.0])
    assert not oracle.check_knn(live, query, 2, [0, 3], [0.0, 1.0])
    assert not oracle.check_knn(live, query, 2, [0, 3], [0.0, np.hypot(3, 3)])
    live.remove(1)
    assert not oracle.check_knn(live, query, 2, [0, 1], [0.0, 1.0])
    assert oracle.check_knn(live, query, 2, [0, 2], [0.0, 1.0])


def test_pool_means_average_each_members_repeats():
    # member 0 ran once fast and once slow; its mean, not either call,
    # is what a percentile over the pool sees
    samples = [1.0, 3.0, 2.5, 2.5, 10.0]
    ids = [0, 0, 1, 1, 2]
    assert list(metrics.pool_means(samples, ids)) == [2.0, 2.5, 10.0]
    assert metrics.percentile(metrics.pool_means([], []), 50) == 0.0
