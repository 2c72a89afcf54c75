"""Compare the CLI's output on two source trees, job by job.

Runs every job of an input directory written by ``bench/inputs.py`` or
``tools/contract_jobs.py`` in process, once on each tree, each tree in its
own interpreter, and lists every job whose exit code, stdout digest or
stderr differs.  A job is ``{"id", "verb", "argv"}``; an argv element that
ends in ``.json`` names a file in the directory.  As in
``bench/worker.py``, the verify-eigenpair jobs read the pair that their
``rho`` job printed; here it is the base tree's ``rho`` that writes it, so
both trees verify the same pair.

    python3 bench/inputs.py --workload tensor-json --seed 7 --out DIR --src BASE/src
    python3 tools/compare_stdout.py --dir DIR --base BASE/src --change src

With ``--repeat N`` the job list runs N times on each tree, each run in a
new interpreter after one untimed job per verb, as in ``bench/worker.py``;
the tree that runs first alternates from round to round.
Outputs are compared on the first round, and a table gives each verb's
median job time in ms on each tree, a job's time being its median over the
rounds.  Its last row, "all jobs", is the sum of every job's time, one pass
over the job list:

    python3 tools/compare_stdout.py --dir DIR --base BASE/src --change src --repeat 5

Exits 0 when every job agrees, 1 when some job differs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback


def _run(main, argv: list[str]) -> tuple[int, bytes, str]:
    """Exit code, stdout bytes and stderr text of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001  (an uncaught error is a result to compare)
        code = -1
        err.write(traceback.format_exc())
    return code, out.getvalue().encode(), err.getvalue()


def run_tree(work: str, src: str, write_pairs: bool) -> list[dict]:
    """Every job of ``work`` on the package in ``src``, in job-list order."""
    sys.path.insert(0, src)
    import hypersym.cli

    with open(os.path.join(work, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    argvs = [[os.path.join(work, a) if a.endswith(".json") else a for a in job["argv"]]
             for job in jobs]
    if write_pairs:
        by_id = {job["id"]: i for i, job in enumerate(jobs)}
        for job in jobs:
            if "pair_from" in job:
                _, data, _ = _run(hypersym.cli.main, argvs[by_id[job["pair_from"]]])
                with open(os.path.join(work, job["pair"]), "wb") as fh:
                    fh.write(data)
    # As in bench/worker.py, one untimed job per verb, on its smallest input,
    # so that first-call costs (lazy imports, numpy set-up) stay out of the times.
    size = [sum(os.path.getsize(a) for a in argv if a.endswith(".json")) for argv in argvs]
    smallest: dict[str, int] = {}
    for i, job in enumerate(jobs):
        if job["verb"] not in smallest or size[i] < size[smallest[job["verb"]]]:
            smallest[job["verb"]] = i
    for i in smallest.values():
        _run(hypersym.cli.main, argvs[i])
    results = []
    for job, argv in zip(jobs, argvs):
        start = time.perf_counter()
        code, data, err = _run(hypersym.cli.main, argv)
        ms = 1e3 * (time.perf_counter() - start)
        results.append({"id": job["id"], "verb": job["verb"], "code": code, "ms": ms,
                        "stdout": hashlib.sha256(data).hexdigest(), "stderr": err})
    return results


def _child(work: str, src: str, write_pairs: bool, out: str) -> list[dict]:
    argv = [sys.executable, os.path.abspath(__file__), "--dir", work, "--run", src, "--out", out]
    if write_pairs:
        argv.append("--write-pairs")
    subprocess.run(argv, check=True)
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _timing_table(rounds: list[dict[str, list[dict]]]) -> list[str]:
    """Each verb's median job time in ms per tree, a job's time its median over rounds.

    The last row, "all jobs", sums every job's time: one pass over the job
    list, the time that the benchmark's jobs per second inverts.
    """
    lines = [f"{'verb':<20} {'base ms':>10} {'change ms':>10}"]
    jobs = rounds[0]["base"]
    ms = {name: [statistics.median(r[name][i]["ms"] for r in rounds) for i in range(len(jobs))]
          for name in ("base", "change")}
    for verb in dict.fromkeys(job["verb"] for job in jobs):
        index = [i for i, job in enumerate(jobs) if job["verb"] == verb]
        base, change = (statistics.median(ms[name][i] for i in index)
                        for name in ("base", "change"))
        lines.append(f"{verb:<20} {base:>10.3f} {change:>10.3f}")
    lines.append(f"{'all jobs':<20} {sum(ms['base']):>10.3f} {sum(ms['change']):>10.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True,
                        help="directory written by bench/inputs.py or tools/contract_jobs.py")
    parser.add_argument("--base", help="directory holding the base tree's hypersym package")
    parser.add_argument("--change", help="directory holding the changed tree's hypersym package")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run every job N times on each tree and print per-verb median times")
    parser.add_argument("--run", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--write-pairs", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    work = os.path.abspath(args.dir)

    if args.run:  # one tree, in this interpreter
        results = run_tree(work, os.path.abspath(args.run), args.write_pairs)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh)
        return 0

    if not (args.base and args.change):
        parser.error("--base and --change are required")
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be at least 1")
    trees = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    rounds: list[dict[str, list[dict]]] = []
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.repeat or 1):
            # the base tree writes the pairs, so it runs first in the first round
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            out = os.path.join(tmp, "out.json")
            rounds.append({name: _child(work, trees[name], k == 0 and name == "base", out)
                           for name in order})
    base, change = rounds[0]["base"], rounds[0]["change"]
    differ = 0
    for a, b in zip(base, change):
        fields = [f for f in ("code", "stdout", "stderr") if a[f] != b[f]]
        if fields:
            differ += 1
            print(f"{a['id']}: {', '.join(fields)} differ "
                  f"(exit {a['code']} -> {b['code']})")
    codes = sorted({r["code"] for r in base})
    print(f"{len(base)} jobs, {differ} differ; base exit codes {codes}")
    if args.repeat:
        print("\n".join(_timing_table(rounds)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
