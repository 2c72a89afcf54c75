"""The hypersym benchmark: one command, three CLI workloads.

    python3 bench/run.py --workload graph-certify --seed 1 --seconds 30 --trace 0

Each run generates the seeded inputs (bench/inputs.py, in fresh
interpreters, timed as ``setup_s``), then runs the workload as a closed
loop with one client in one worker process (bench/worker.py): every job
is an in-process call of ``hypersym.cli.main(argv)`` with stdout captured.
The job list runs in whole passes, at least three, for about ``--seconds``.
Every stdout is hashed; each job's first stdout is checked by
bench/checks.py, which never calls the package, and every later stdout
must repeat it byte for byte.

Every time the benchmark reports is scaled to a reference host speed by
bench/calibration.py, so that the host's changes of speed cancel out; the
unscaled figures are in the report line.  The worker times a fixed kernel
before and after every job, and the job's time is multiplied by the
kernel's reference time over the mean of those two.  ``setup_s`` is the
median over the set-up runs of each one's CPU time, scaled the same way by
a calibration run in a fresh interpreter before and after it.

A job's latency is its median over the passes of the run.  ``job_p50_ms``
is the median of these over the job list, and ``job_tail_ms`` the highest
percentile of the same list with at least ten jobs beyond it: p90, since
every workload has at least 100 jobs per pass, whatever the pass count.
``jobs_per_s`` is the rate of correct jobs in a pass at these per-job
latencies: the share of jobs correct times the job count over their sum.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and then a traced worker for half the time each, and prints the
per-layer metrics of bench/tracing.py per pass over the job list (times as
the median over passes, counts and ratios from the first pass) and the
tracing overhead from the two ``jobs_per_s``.  The line before the last is
a report with the environment, the input and job-list digests,
``failed_frac`` and the tail percentile used; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (see BENCHMARK.json for why each exists):
  graph-certify   check-symmetric, odd-transversal, rho on 4-graphs
  exact-charpoly  charpoly and verify-product on small exact tensors
  tensor-json     rho, verify-eigenpair, odd-coloring, odd-transversal on
                  general tensor documents
"""
from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _environment() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit()}


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _child(argv: list[str]) -> str:
    """Run a child interpreter to completion; return its stdout."""
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout


def _setup(workload: str, seed: int, work: str, repeats: int,
           smoke: bool) -> tuple[float, dict]:
    records, reference = [], [_calibration_cpu_s()]
    for _ in range(repeats):
        out = _child([os.path.join(BENCH, "inputs.py"), "--workload", workload,
                      "--seed", str(seed), "--out", work, "--src", SRC]
                     + (["--smoke"] if smoke else []))
        records.append(json.loads(out.strip().splitlines()[-1]))
        reference.append(_calibration_cpu_s())
    digests = {(r["input_digest"], r["jobs_digest"]) for r in records}
    if len(digests) != 1:
        raise BenchError(f"set-up wrote different inputs for one seed: {digests}")
    record = dict(records[0])
    del record["setup_s"]
    record["setup_cpu_s"] = statistics.median(r["setup_s"] for r in records)
    record["setup_wall_s"] = statistics.median(r["setup_wall_s"] for r in records)
    record["setup_calibration_cpu_s"] = statistics.median(reference)
    factors = calibration.scales(reference, calibration.SETUP_REFERENCE_S)
    return statistics.median(r["setup_s"] * f for r, f in zip(records, factors)), record


def _calibration_cpu_s() -> float:
    out = _child([os.path.join(BENCH, "calibration.py")])
    return json.loads(out.strip().splitlines()[-1])["cpu_s"]


def _work_loop(work: str, seconds: float, trace: bool, label: str) -> dict:
    out = os.path.join(work, f"result-{label}.json")
    argv = [os.path.join(BENCH, "worker.py"), "--dir", work, "--src", SRC,
            "--seconds", str(seconds), "--out", out]
    _child(argv + (["--trace"] if trace else []))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _check_outputs(work: str, jobs: list[dict], stdout: list[str]) -> list[list[str]]:
    """Problems of each job's first stdout; an empty list means correct."""
    instances: dict[str, checks.Instance] = {}
    problems: list[list[str]] = []
    feasible: dict[tuple[str, str], bool] = {}
    for job, text in zip(jobs, stdout):
        fname = job["input"]
        if fname not in instances:
            with open(os.path.join(work, fname), encoding="utf-8") as fh:
                instances[fname] = checks.Instance(json.load(fh))
        inst = instances[fname]
        try:
            problems.append(_check_one(work, job, inst, json.loads(text), feasible))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append([f"unreadable output: {type(exc).__name__}: {exc}"])
    # An odd transversal X gives the odd coloring (r/2) * 1_X, so a feasible
    # transversal with an infeasible coloring of the same input is wrong.
    for i, job in enumerate(jobs):
        key = job["input"]
        if (feasible.get((key, "odd-transversal")) and instances[key].r % 2 == 0
                and feasible.get((key, "odd-coloring")) is False):
            problems[i].append("odd transversal exists but the coloring is infeasible")
    return problems


def _check_one(work: str, job: dict, inst: checks.Instance, out: dict,
               feasible: dict) -> list[str]:
    verb, meta = job["verb"], job["meta"]
    family, planted = meta.get("family"), meta.get("planted")
    if verb == "check-symmetric":
        feasible[(job["input"], "odd-coloring")] = out["branch"] == "colorable"
        return checks.check_symmetric(inst, out, family)
    if verb in ("odd-coloring", "odd-transversal"):
        feasible[(job["input"], verb)] = out["feasible"]
        check = checks.check_odd_coloring if verb == "odd-coloring" else checks.check_odd_transversal
        problems = check(inst, out)
        expected = None
        if family is not None:  # no family graph has an odd transversal
            expected = verb == "odd-coloring" and family != "planted-k5"
        elif planted == "transversal" or (planted == "coloring" and verb == "odd-coloring"):
            expected = True
        if expected is not None and out["feasible"] != expected:
            problems.append(f"{verb} feasible={out['feasible']}, known {expected}")
        return problems
    if verb == "rho":
        return checks.check_rho(inst, out)
    if verb == "verify-eigenpair":
        with open(os.path.join(work, job["pair"]), encoding="utf-8") as fh:
            return checks.check_verify_eigenpair(inst, out, json.load(fh))
    if verb == "charpoly":
        oracle = checks.matrix_oracle(inst, meta["node"]) if inst.r == 2 else None
        return checks.check_charpoly(inst, out, oracle)
    if verb == "verify-product":
        return checks.check_verify_product(inst, out)
    raise ValueError(f"no check for verb {verb!r}")


def _wrong(result: dict, reference: list[str], bad: list[bool]) -> list[bool]:
    """Per timed job: a nonzero exit, a failed check or changed stdout bytes."""
    count = len(reference)
    return [code != 0 or digest != reference[k % count] or bad[k % count]
            for k, (code, digest) in enumerate(zip(result["codes"], result["hashes"]))]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _job_latencies(latencies: list[float], count: int) -> list[float]:
    """Each job's median latency over the passes of the run."""
    return [statistics.median(latencies[j::count]) for j in range(count)]


def _scaled(result: dict) -> tuple[list[float], float]:
    """Every timed job's latency at the reference host speed, and the run's
    overall factor: scaled over unscaled total job time."""
    scaled = [t * f for t, f in zip(result["latencies_s"],
                                    calibration.scales(result["kernel_s"]))]
    return scaled, sum(scaled) / sum(result["latencies_s"])


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it.

    Below 20 samples no percentile qualifies and the maximum is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def _jobs_per_s(per_job: list[float], wrong: list[bool]) -> float:
    """Correct jobs per second of one pass at each job's median latency."""
    return (1 - sum(wrong) / len(wrong)) * len(per_job) / sum(per_job)


def _layer_metrics(result: dict, factor: float, untraced_jps: float,
                   traced_jps: float) -> dict:
    """Per pass over the job list: counts of the first pass, and the median
    over passes of each time multiplied by ``factor``."""
    spans, bounds = result["spans"], result["span_bounds"]
    passes = [tracing.layer_metrics(spans, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    out = {name: statistics.median(p[name] for p in passes) * factor if name.endswith("_s")
           else passes[0][name] for name in passes[0]}
    out["jsonio.bytes_in"] = sum(result["bytes_in"])
    out["jsonio.bytes_out"] = sum(len(s.encode()) for s in result["first_stdout"])
    out["trace.overhead_frac"] = untraced_jps / traced_jps - 1.0
    return {name: out[name] for name in tracing.PER_LAYER_METRICS}


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "hypersym", "__init__.py")):
        raise BenchError(f"no hypersym package under {SRC}")
    load_start = os.getloadavg()
    work = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_s, load = _setup(workload, seed, work, 1 if trace else SETUP_REPEATS, smoke)
    with open(os.path.join(work, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)

    labels = ("untraced", "traced") if trace else ("untraced",)
    loop_s = seconds / len(labels)
    results = {label: _work_loop(work, loop_s, label == "traced", label) for label in labels}

    base = results["untraced"]
    reference = base["hashes"][:len(jobs)]
    problems = _check_outputs(work, jobs, base["first_stdout"])
    for i, job in enumerate(jobs):
        for result in results.values():
            if result["prepass_hashes"].get(job["id"], reference[i]) != reference[i]:
                problems[i].append("the pair-producing run gave different stdout bytes")
    bad = [bool(p) for p in problems]
    wrong = {label: _wrong(r, reference, bad) for label, r in results.items()}
    attempted = sum(len(r["codes"]) for r in results.values())
    failed = sum(sum(w) for w in wrong.values())

    scaled = {label: _scaled(r) for label, r in results.items()}
    factor = {label: f for label, (_, f) in scaled.items()}
    raw_job = _job_latencies(base["latencies_s"], len(jobs))
    job_s = {label: _job_latencies(lat, len(jobs)) for label, (lat, _) in scaled.items()}
    per_job = job_s["untraced"]
    tail_p, tail_v = _tail(per_job)
    jps = {label: _jobs_per_s(job_s[label], wrong[label]) for label in results}
    if trace:
        metrics = _layer_metrics(results["traced"], factor["traced"], jps["untraced"],
                                 jps["traced"])
        units = {name: tracing.unit_of(name) for name in metrics}
    else:
        metrics = {"setup_s": setup_s,
                   "job_p50_ms": statistics.median(per_job) * 1e3,
                   "job_tail_ms": tail_v * 1e3,
                   "jobs_per_s": jps["untraced"],
                   "peak_rss_mb": base["peak_rss_mb"]}
        units = END_TO_END_UNITS
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "environment": _environment(), "load_avg_start": load_start,
        "load_avg_end": os.getloadavg(), "load": load,
        "closed_loop": {"clients": 1, "processes": 1, "jobs_per_pass": len(jobs),
                        "passes": {k: r["passes"] for k, r in results.items()}},
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "calibration": {
            label: {"kernel_median_s": statistics.median(r["kernel_s"]),
                    "kernel_samples": len(r["kernel_s"]), "scale": factor[label]}
            for label, r in results.items()},
        "unscaled": {"job_p50_ms": statistics.median(raw_job) * 1e3,
                     "job_tail_ms": _tail(raw_job)[1] * 1e3,
                     "jobs_per_s": _jobs_per_s(raw_job, wrong["untraced"])},
        "job_tail": {"percentile": tail_p, "samples": len(per_job)},
        "problems": {jobs[i]["id"]: p for i, p in enumerate(problems) if p},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of small instances, for bench/test_bench.py")
    args = parser.parse_args(argv)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
