"""tools/compare_stdout.py on a smoke-size benchmark input directory, and tools/mutants.py's list."""

from __future__ import annotations

import importlib.util
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


def test_each_tree_is_warmed_before_its_timed_pass(work, tmp_path):
    # a copy of the package whose CLI logs every call: the change tree runs
    # one job per verb on its smallest input, then the whole job list
    shutil.copytree(os.path.join(SRC, "hypersym"), tmp_path / "hypersym",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "hypersym" / "cli.py"
    log = tmp_path / "calls.log"
    text = cli.read_text()
    head = "def main(argv: list[str] | None = None) -> int:\n"
    assert head in text
    record = f"    with open({str(log)!r}, 'a') as fh: fh.write(' '.join(argv) + '\\n')\n"
    cli.write_text(text.replace(head, head + record))
    proc = _compare(work, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(work, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    argvs = [" ".join(os.path.join(work, a) if a.endswith(".json") else a for a in job["argv"])
             for job in jobs]
    size = [sum(os.path.getsize(os.path.join(work, a)) for a in job["argv"] if a.endswith(".json"))
            for job in jobs]
    smallest = {}
    for i, job in enumerate(jobs):
        if job["verb"] not in smallest or size[i] < size[smallest[job["verb"]]]:
            smallest[job["verb"]] = i
    assert log.read_text().splitlines() == [argvs[i] for i in smallest.values()] + argvs


def test_jobs_without_a_verb_compare(tmp_path):
    # the help and no-verb usage error: their exit codes are results like any other
    (tmp_path / "jobs.json").write_text(json.dumps([
        {"id": "usage:", "verb": "", "argv": []},
        {"id": "usage:-h", "verb": "", "argv": ["-h"]}]))
    proc = _compare(str(tmp_path), SRC)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2 jobs, 0 differ; base exit codes [0, 2]\n"


@pytest.fixture(scope="module")
def contract(tmp_path_factory) -> tuple[str, list[dict]]:
    out = str(tmp_path_factory.mktemp("contract"))
    subprocess.run([sys.executable, os.path.join(ROOT, "tools", "contract_jobs.py"),
                    "--out", out, "--src", SRC], check=True, capture_output=True, timeout=170)
    with open(os.path.join(out, "jobs.json"), encoding="utf-8") as fh:
        return out, json.load(fh)


def test_contract_jobs_reach_every_verb_and_fixture(contract):
    from hypersym.cli import build_parser
    from hypersym.fixtures import FIXTURE_NAMES

    _, jobs = contract
    assert len({job["id"] for job in jobs}) == len(jobs)
    assert set(build_parser()[1]) <= {job["verb"] for job in jobs}
    fixture_jobs = [job["argv"] for job in jobs if job["verb"] == "fixture"]
    assert {argv[1] for argv in fixture_jobs} == set(FIXTURE_NAMES)
    assert ["fixture", "edge-r", "--r", "171"] in fixture_jobs


def test_contract_jobs_name_only_files_that_exist(contract):
    out, jobs = contract
    pairs = {job["pair"] for job in jobs if "pair" in job}
    named = {a for job in jobs for a in job["argv"] if a.endswith(".json")}
    assert pairs <= named
    assert all(os.path.isfile(os.path.join(out, a)) for a in named - pairs)
    assert not any(os.path.exists(os.path.join(out, a)) for a in pairs)


def test_contract_jobs_keep_the_usage_argvs(contract):
    _, jobs = contract
    argvs = [job["argv"] for job in jobs if job["verb"] == "usage"]
    assert argvs == [[], ["-h"], ["rho"], ["rho", "-h"], ["frobnicate", "--input", "order6.json"],
                     ["rho", "--input", "order6.json", "extra"], ["rho", "--inp", "order6.json"],
                     ["fixture", "h2", "--r", "3", "--bogus"]]


def test_contract_jobs_verify_rhos_pairs_and_refused_pairs(contract):
    _, jobs = contract
    by_id = {job["id"]: job for job in jobs}
    verified = [job for job in jobs if "pair_from" in job]
    # each reads the pair of the rho job on its own input
    for job in verified:
        assert by_id[job["pair_from"]]["argv"] == ["rho", *job["argv"][1:3]]
    assert {job["argv"][2] for job in verified} == {
        "order6.json", "prop4-k1.json", "prop5-k1.json", "edge-r-2.json", "edge-r-3.json",
        "edge-r-4.json", "edge-r-171.json", "prop5-k2.json"}
    refused = [job["id"] for job in jobs
               if job["verb"] == "verify-eigenpair" and "pair_from" not in job]
    assert refused == ["verify-eigenpair:order6-lambda-3-parts", "verify-eigenpair:order6-x-bool",
                       "verify-eigenpair:order6-no-residual", "verify-eigenpair:order6-x-short"]


def _mutants() -> tuple:
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("mutant", _mutants(), ids=lambda m: m.name)
def test_each_mutant_names_one_place_and_a_test(mutant):
    # the mutation runs stay out of tier-1; this keeps their list from going stale
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        assert fh.read().count(mutant.old) == 1
    test_file, *names = mutant.kill.split("::")
    with open(os.path.join(ROOT, test_file), encoding="utf-8") as fh:
        assert f"def {names[-1].split('[')[0]}(" in fh.read()
