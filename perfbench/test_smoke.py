"""Smoke test of the benchmark harness itself, at trivial op sizes.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced; the test checks that every
metric is emitted with its unit, that BENCHMARK.json names the same metrics,
that an injected failing op is counted, and that a directory without the
package makes the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, script: Path = HERE / "run.py") -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(script), "--scale", "smoke", "--seconds", "1", *args],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def details(workload: str, seed: int, trace: int) -> dict:
    return json.loads((run.RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    proc, result = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in {**run.END_TO_END, **run.DETAIL}.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", proc.stdout, re.M), name

    traced_proc, traced = bench("--workload", workload, "--seed", "3", "--trace", "1")
    assert traced_proc.returncode == 0, traced_proc.stdout + traced_proc.stderr
    assert traced["correct"] and traced["failed"] == 0
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == run.per_layer_units()
    metrics = {k: m["value"] for k, m in traced["metrics"].items()}
    assert metrics["cli.main.calls"] == len(workloads.build_ops(workload, 3, "smoke"))
    ring_calls = metrics["cyclotomic.exact_overlap.calls"]
    assert (ring_calls == 0) == (workload == "float-oracle")

    # the in-process replay prints the same bytes as the CLI processes
    untraced_digests = details(workload, 3, 0)["output_digests"]
    assert details(workload, 3, 1)["output_digests"] == untraced_digests


def test_injected_failure_is_counted():
    proc, result = bench("--workload", "exact-verify", "--seed", "4", "--trace", "0", "--inject-failure")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["failed"] < result["attempted"]
    report = details("exact-verify", 4, 0)
    ratio = report["detail_metrics"]["failed_op_ratio"]
    assert ratio["unit"] == "ratio"
    assert ratio["value"] == result["failed"] / result["attempted"]
    assert all("exit code 2" in error for error in report["errors"])


def test_directory_without_the_package_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "exact-verify", "--seed", "1", script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert result is None
