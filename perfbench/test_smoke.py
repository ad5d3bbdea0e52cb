"""Smoke test of the benchmark at minimal sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.  Each
workload runs one small operation and passes its check, and a deliberately
corrupted output trips that check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bulk_input  # noqa: E402
import pocbounds.cli  # noqa: E402
import pocbounds.inference  # noqa: E402
from tracer import COUNTED, SPANNED, Tracer, _resolve  # noqa: E402
from workloads import BulkPooled, CheckFailed, FixtureCli, SharpnessMc, check_fixture_report  # noqa: E402


def test_fixture_cli_checks(tmp_path):
    workload = FixtureCli(ROOT, tmp_path, seed=0, reps=20)
    workload.check(workload.run(0))
    workload.check(workload.run(1))

    report = json.loads(workload.report_path.read_text())
    report["unconditional"]["A1_5"]["lb"] = report["unconditional"]["A1_3"]["ub"] + 0.1
    with pytest.raises(CheckFailed, match="not nested|lb"):
        check_fixture_report(report, workload.counts)

    workload.run(2)
    workload.report_path.write_text(workload.report_path.read_text() + " ")
    with pytest.raises(CheckFailed, match="differs"):
        workload.check(0)


def test_bulk_pooled_checks(tmp_path):
    info = bulk_input.generate(tmp_path / "bulk.csv", seed=0, rows=3000, strata=5)
    again = bulk_input.generate(tmp_path / "again.csv", seed=0, rows=3000, strata=5)
    assert again["sha256"] == info["sha256"] and again["counts"] == info["counts"]
    assert sum(map(sum, info["counts"])) == 3000

    workload = BulkPooled(tmp_path, seed=0, expected=info, reps=20)
    exit_code = workload.run(0)
    workload.check(exit_code)

    counts = [row[:] for row in info["counts"]]
    counts[1][0] -= 1
    counts[1][1] += 1
    workload.expected = {**info, "counts": counts}
    with pytest.raises(CheckFailed, match="moments"):
        workload.check(exit_code)


def test_sharpness_mc_checks():
    workload = SharpnessMc(seed=0, sample_rows=200)
    results = workload.run(0)
    workload.check(results)

    lo, hi = results[0]["envelope"]
    results[0]["envelope"] = (lo, hi + 1e-4)
    with pytest.raises(CheckFailed, match="LP envelope"):
        workload.check(results)


def test_tracer_records_nested_spans_and_restores(tmp_path):
    originals = {(owner, attr): getattr(_resolve(owner), attr) for owner, attr, _ in SPANNED + COUNTED}
    workload = FixtureCli(ROOT, tmp_path, seed=0, reps=10)
    tracer = Tracer()
    tracer.install()
    try:
        assert pocbounds.cli.bootstrap_bounds is not originals[("pocbounds.cli", "bootstrap_bounds")]
        with tracer.operation():
            workload.run(0)
        workload.check(0)  # outside an operation: no spans recorded
    finally:
        tracer.restore()
    for (owner, attr), original in originals.items():
        assert getattr(_resolve(owner), attr) is original
    assert pocbounds.inference.cell_counts is originals[("pocbounds.inference", "cell_counts")]

    names = [span.name for span in tracer.spans]
    assert names.count("inference.bootstrap_bounds") == 30
    for span in tracer.spans:
        if span.name == "inference.bootstrap_bounds":
            assert tracer.spans[span.parent].name == "cli.run_analysis"
    summary = tracer.summary()
    assert all(0.0 <= entry["self_s"] <= entry["s"] for entry in summary.values())
    assert tracer.counters["rows_loaded"] == 1769
    assert tracer.counters["inference.replicates"] == 300
    assert tracer.counters["bounds.compute_bounds.calls"] > 300


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sharpness_mc", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture_cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
