"""Smoke test of the benchmark at reduced input size.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
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
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]
AREA_ONLY = {"eq_dev_max", "err_rel_p50"}  # undefined where a workload has no area checks


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def test_benchmark_spec_names_known_workloads():
    assert set(GATED) <= set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload, tmp_path):
    out = tmp_path / "record.json"
    result = result_of(bench(workload, 0, "--out", str(out)))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    if workload == "pointwise-grid":
        expected = {k: v for k, v in expected.items() if k not in AREA_ONLY}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload in GATED:
        assert result["correct"] and result["failed"] == 0
    record = json.loads(out.read_text())
    assert record["machine"]["nproc"] >= 1 and "use_numba" in record["machine"]
    assert record["fail_frac"] == result["failed"] / result["attempted"]
    assert record["wall_s"]["n"] >= 1 and all(record["wall_s"]["unit_times"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_per_layer_metric_is_emitted(workload):
    result = result_of(bench(workload, 1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_layer_counts_repeat_exactly():
    runs = [result_of(bench("bridge-area", 1))["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.integrand.points"] > 0


def test_compare_flags_nothing_between_identical_records(tmp_path):
    out = tmp_path / "record.json"
    result_of(bench("bridge-area", 0, "--out", str(out)))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), str(out), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "probes moved beyond their error estimate: 0" in proc.stdout
    assert "MOVED" not in proc.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(GATED[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
