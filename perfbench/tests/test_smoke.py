"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced.  It checks the output's shape and names only, never a timing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Names each workload prints in its report, besides the shared metrics.
OWN_METRICS = {
    "grid": ["scan_pps_j1", "scan_pps_j2", "scan_p50_us", "scan_tail_us"],
    "hard_d0": ["solve_pps", "solve_p50_us", "solve_tail_us"],
    "smooth_d0": ["solve_pps", "solve_p50_us", "solve_tail_us", "trace_p50_us", "trace_tail_us"],
    "oracle_check": ["check_sps", "check_p50_us", "check_tail_us"],
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload: str, trace: str) -> None:
    done = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    # hard_d0 keeps the inputs the factorizer cannot finish today
    assert (result["failed"] > 0) == (workload == "hard_d0")

    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    # the shared metrics are printed too, beside the workload's own names
    report = "\n".join(lines[:-1])
    for metric in expected:
        assert metric["name"] in report, metric["name"]
    for name in OWN_METRICS[workload] + ["fail_frac"] if trace == "0" else []:
        assert f"\n{name} = " in report, name


def test_benchmark_without_package_source_fails(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
