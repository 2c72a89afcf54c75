"""Smoke-size self-test of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at smoke size (``--smoke``: a handful of small
instances) untraced and traced, and checks the result contract: every
metric of BENCHMARK.json printed with its unit, no failed job, counts
that repeat exactly, one input digest per seed, and no result at all in a
directory that holds only the benchmark.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report, result


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_end_to_end_metrics_and_no_failures(workload):
    report, result = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    runs = [_result(workload, 1)[1] for _ in range(2)]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in runs:
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    first, second = ({k: v["value"] for k, v in r["metrics"].items()} for r in runs)
    for name in tracing.COUNT_METRICS:
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_digest(workload, tmp_path):
    a = inputs.write_workload(workload, 5, str(tmp_path / "a"), smoke=False)
    b = inputs.write_workload(workload, 5, str(tmp_path / "b"), smoke=False)
    c = inputs.write_workload(workload, 6, str(tmp_path / "c"), smoke=False)
    assert a == b
    assert c["input_digest"] != a["input_digest"]


def test_no_result_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("graph-certify", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibration_scales_each_job_by_the_kernels_around_it():
    ref = calibration.REFERENCE_S
    # Job 0 ran between two reference-speed kernels, job 1 on a slower host.
    assert calibration.scales([ref, ref, 2 * ref]) == [1.0, pytest.approx(2 / 3)]
    assert calibration.kernel() > 0


def test_checks_reject_wrong_outputs():
    square = checks.Instance({"r": 2, "n": 2, "entries": [
        {"i": [1, 1], "v": "2"}, {"i": [1, 2], "v": 1}, {"i": [2, 1], "v": 1}]})
    # det(x I - A) = x^2 - 2x - 1 for A = [[2, 1], [1, 0]].
    good = {"degree": 2, "coeffs": ["-1", "-2", "1"]}
    assert checks.check_charpoly(square, good, checks.matrix_oracle(square, 3)) == []
    wrong_node = {"degree": 2, "coeffs": ["-2", "-2", "1"]}
    assert checks.check_charpoly(square, wrong_node, checks.matrix_oracle(square, 3))
    wrong_trace = {"degree": 2, "coeffs": ["-1", "2", "1"]}
    assert checks.check_charpoly(square, wrong_trace, None)

    edge = checks.Instance({"r": 4, "n": 5, "edges": [[1, 2, 3, 4], [2, 3, 4, 5]]})
    coloring = {"feasible": True, "conflict": None,
                "certificate": {"kind": "odd-coloring", "r": 4, "phi": [2, 0, 0, 0, 2]}}
    assert checks.check_odd_coloring(edge, coloring) == []
    coloring["certificate"]["phi"] = [1, 0, 0, 0, 2]
    assert checks.check_odd_coloring(edge, coloring)
    conflict = {"feasible": False, "certificate": None,
                "conflict": {"pattern_indices": [0], "patterns": [[1, 2, 3, 4]]}}
    assert checks.check_odd_transversal(edge, conflict)

    # The Perron pair of a single 4-edge is (3! = 6, all ones); scale it off.
    single = checks.Instance({"r": 4, "n": 4, "edges": [[1, 2, 3, 4]]})
    pair = {"lambda": [6.0, 0.0], "x": [[0.5, 0.0]] * 4, "residual": 0.0, "kind": "H"}
    assert checks.check_rho(single, pair) == []
    pair["lambda"] = [6.5, 0.0]
    assert checks.check_rho(single, pair)
