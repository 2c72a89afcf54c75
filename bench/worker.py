"""Closed-loop job runner: one client, one process, in-process CLI calls.

Each job is one call of ``hypersym.cli.main(argv)`` with stdout captured;
its latency runs from the call to the stdout bytes.  The loop runs the job
list in order, whole passes only, so every run has the same job mix: at
least MIN_PASSES passes, and more while one more pass of average length
still ends within ``--seconds``.
Before every job, and once after the last, the loop times the fixed
calibration kernel, so that the run harness can scale each job's time to
a reference host speed.
With ``--trace`` the outside-in spans of `tracing` are installed first and
written out with the results.

    python3 bench/worker.py --dir WORK --src SRC --seconds 20 --out result.json

The result file holds per-job latencies, exit codes and stdout hashes,
the first stdout of every job (for the output checks), the kernel times,
and the peak RSS of this process.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

# Each job's latency is its median over the passes, so a run needs a few.
MIN_PASSES = 3


def _run(main, argv: list[str]) -> tuple[int, bytes, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001  (an uncaught error is a failed job)
        code = -1
        err.write(traceback.format_exc())
    data = out.getvalue().encode()
    elapsed = time.perf_counter() - start
    if code:
        sys.stderr.write(f"job {argv} exited {code}: {err.getvalue()[-2000:]}\n")
    return code, data, elapsed


def _mean_pass_fits(start: float, passes: int, seconds: float) -> bool:
    """Whether one more pass of average length still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, help="directory of inputs and jobs.json")
    parser.add_argument("--src", required=True, help="directory holding the hypersym package")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import calibration
    import hypersym.cli

    with open(os.path.join(args.dir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    argvs = [[os.path.join(args.dir, a) if a.endswith(".json") else a for a in job["argv"]]
             for job in jobs]
    by_id = {job["id"]: i for i, job in enumerate(jobs)}

    # verify-eigenpair reads the pair that rho returned; produce it untimed.
    prepass = {}
    for job in jobs:
        if "pair_from" in job:
            source = by_id[job["pair_from"]]
            _, data, _ = _run(hypersym.cli.main, argvs[source])
            with open(os.path.join(args.dir, job["pair"]), "wb") as fh:
                fh.write(data)
            prepass[jobs[source]["id"]] = hashlib.sha256(data).hexdigest()

    bytes_in = [sum(os.path.getsize(a) for a in job_argv if a.endswith(".json"))
                for job_argv in argvs]

    # One untimed job per verb, on its smallest input, so that first-call
    # costs (lazy imports, numpy set-up) stay out of the timed loop.
    smallest: dict[str, int] = {}
    for i, job in enumerate(jobs):
        if job["verb"] not in smallest or bytes_in[i] < bytes_in[smallest[job["verb"]]]:
            smallest[job["verb"]] = i
    for i in smallest.values():
        _run(hypersym.cli.main, argvs[i])
    for _ in range(10):
        calibration.kernel()

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder()
        tracing.install(recorder)
    run_main = hypersym.cli.main  # looked up after tracing replaced it

    latencies: list[float] = []
    codes: list[int] = []
    hashes: list[str] = []
    first: dict[int, str] = {}
    span_bounds = [0]
    kernel_s: list[float] = []
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or _mean_pass_fits(start, passes, args.seconds):
        for i, job_argv in enumerate(argvs):
            kernel_s.append(calibration.kernel())
            code, data, elapsed = _run(run_main, job_argv)
            latencies.append(elapsed)
            codes.append(code)
            hashes.append(hashlib.sha256(data).hexdigest())
            if i not in first:
                first[i] = data.decode()
        passes += 1
        if recorder is not None:
            span_bounds.append(len(recorder.spans))
    kernel_s.append(calibration.kernel())  # so that every job has one on each side

    result = {
        "passes": passes,
        "kernel_s": kernel_s,
        "latencies_s": latencies,
        "codes": codes,
        "hashes": hashes,
        "first_stdout": [first[i] for i in range(len(jobs))],
        "prepass_hashes": prepass,
        "bytes_in": bytes_in,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["span_bounds"] = span_bounds
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
