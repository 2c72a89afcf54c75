"""tools/compare_stdout.py on a smoke-size benchmark input directory."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TOOL = os.path.join(ROOT, "tools", "compare_stdout.py")


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("tensor-json"))
    subprocess.run([sys.executable, os.path.join(ROOT, "bench", "inputs.py"),
                    "--workload", "tensor-json", "--seed", "3", "--out", out, "--src", SRC,
                    "--smoke"], check=True, capture_output=True, timeout=170)
    return out


def _compare(work: str, change: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, TOOL, "--dir", work, "--base", SRC, "--change", change],
                          capture_output=True, text=True, timeout=170)


def test_same_tree_agrees(work):
    proc = _compare(work, SRC)
    assert proc.returncode == 0, proc.stderr
    assert " 0 differ" in proc.stdout


def test_changed_stdout_is_listed(work, tmp_path):
    # a copy of the package whose eigenpairs print twice their residual
    shutil.copytree(os.path.join(SRC, "hypersym"), tmp_path / "hypersym",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spectra = tmp_path / "hypersym" / "spectra.py"
    text = spectra.read_text()
    assert '"residual": self.residual' in text
    spectra.write_text(text.replace('"residual": self.residual', '"residual": 2 * self.residual'))
    proc = _compare(work, str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert "rho:nonneg-r3-n10-m600: stdout differ (exit 0 -> 0)" in proc.stdout
    assert "verify-eigenpair:nonneg-r3-n10-m600: stdout differ" in proc.stdout
    assert "odd-transversal:" not in proc.stdout


def test_repeat_prints_per_verb_median_times(work, tmp_path):
    # a copy of the tool outside the repository: it needs nothing from bench/
    tool = tmp_path / "compare_stdout.py"
    shutil.copy(TOOL, tool)
    proc = subprocess.run([sys.executable, str(tool), "--dir", work, "--base", SRC,
                           "--change", SRC, "--repeat", "2"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert " 0 differ" in lines[0]
    assert lines[1].split() == ["verb", "base", "ms", "change", "ms"]
    with open(os.path.join(work, "jobs.json"), encoding="utf-8") as fh:
        verbs = {job["argv"][0] for job in json.load(fh)}
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
    assert set(rows) == verbs
    assert all(float(ms) > 0 for cells in rows.values() for ms in cells)
    # the last row sums every job's median, so it is at least any verb's median
    label, *total = lines[-1].rsplit(maxsplit=2)
    assert label == "all jobs"
    for k, tree_ms in enumerate(map(float, total)):
        assert tree_ms >= max(float(cells[k]) for cells in rows.values())
