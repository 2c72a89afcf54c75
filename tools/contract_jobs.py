"""Write the CLI contract's job list: the calls compared across trees beyond the benchmark's.

The benchmark's inputs (``bench/inputs.py``) reach neither argparse's help
and usage errors, nor the fixtures, nor ``convert-certificate`` and ``gen``,
nor any r > 4.  This script writes a job directory for
``tools/compare_stdout.py`` whose jobs do:

- eight help and usage-error argvs (verb ``usage``), the ones that name a
  file reading ``order6.json``;
- ``fixture NAME``, and rho, check-symmetric, odd-coloring, odd-transversal
  and charpoly on that fixture, for every fixture (``edge-r`` at r = 2, 3,
  4 and 171);
- ``convert-certificate`` on ``a2`` both ways, from the certificates that
  odd-coloring and odd-transversal print, and on ``prop4-k1`` with the
  witness of ``gen prop4 --k 1 --size-a 4 --size-b 4`` (exit 3, as r = 4);
  ``verify-product`` on ``a2``;
- ``gen prop4`` and ``gen prop5 --k 2 --size-a 12 --size-b 12 --size-c 8``,
  and check-symmetric, rho, odd-coloring, odd-transversal and
  verify-eigenpair on that r = 8 graph of 191,268 edges; verify-eigenpair
  reads the pair that the base tree's rho job prints.

Every input document is written through the CLI of the package in SRC, so
both trees read the same files:

    python3 tools/contract_jobs.py --out DIR --src BASE/src
    python3 tools/compare_stdout.py --dir DIR --base BASE/src --change src
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys

USAGE_ARGVS = ([], ["-h"], ["rho"], ["rho", "-h"], ["frobnicate", "--input", "order6.json"],
               ["rho", "--input", "order6.json", "extra"], ["rho", "--inp", "order6.json"],
               ["fixture", "h2", "--r", "3", "--bogus"])
FIXTURE_VERBS = ("rho", "check-symmetric", "odd-coloring", "odd-transversal", "charpoly")
EDGE_R = (2, 3, 4, 171)
GEN_PROP4 = ["gen", "prop4", "--k", "1", "--size-a", "4", "--size-b", "4"]
GEN_PROP5 = ["gen", "prop5", "--k", "2", "--size-a", "12", "--size-b", "12", "--size-c", "8"]
GRAPH_VERBS = ("check-symmetric", "rho", "odd-coloring", "odd-transversal")


def _cli(main, argv: list[str]) -> str:
    """stdout of one call of the CLI ``main``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"hypersym {' '.join(argv)} exited {code}")
    return out.getvalue()


def write_contract(out_dir: str, main, fixture_names) -> list[dict]:
    """Write the input documents and ``jobs.json`` into ``out_dir``; return the jobs."""
    os.makedirs(out_dir, exist_ok=True)
    jobs: list[dict] = []

    def path(fname: str) -> str:
        return os.path.join(out_dir, fname)

    def job(verb: str, argv: list[str], name: str, **extra) -> None:
        jobs.append({"id": f"{verb}:{name}", "verb": verb, "argv": argv, **extra})

    def on(verb: str, name: str, *more: str, **extra) -> None:
        job(verb, [verb, "--input", f"{name}.json", *more], name, **extra)

    for argv in USAGE_ARGVS:
        job("usage", list(argv), " ".join(argv))

    for name in fixture_names:
        specs = ([(f"{name}-{r}", ["--r", str(r)]) for r in EDGE_R] if name == "edge-r"
                 else [(name, [])])
        for stem, r_args in specs:
            _cli(main, ["fixture", name, *r_args, "--output", path(f"{stem}.json")])
            job("fixture", ["fixture", name, *r_args], stem)
            for verb in FIXTURE_VERBS:
                on(verb, stem)

    for verb, kind in (("odd-coloring", "coloring"), ("odd-transversal", "transversal")):
        cert = json.loads(_cli(main, [verb, "--input", path("a2.json")]))["certificate"]
        with open(path(f"a2-{kind}.json"), "w", encoding="utf-8") as fh:
            json.dump(cert, fh, sort_keys=True)
        job("convert-certificate", ["convert-certificate", "--input", "a2.json",
                                    "--cert", f"a2-{kind}.json"], f"a2-{kind}")
    _cli(main, [*GEN_PROP4, "--witness-output", path("prop4-k1-witness.json")])
    job("convert-certificate", ["convert-certificate", "--input", "prop4-k1.json",
                                "--cert", "prop4-k1-witness.json"], "prop4-k1-witness")
    on("verify-product", "a2")

    job("gen", GEN_PROP4, "prop4-k1")
    job("gen", GEN_PROP5, "prop5-k2")
    _cli(main, [*GEN_PROP5, "--output", path("prop5-k2.json")])
    for verb in GRAPH_VERBS:
        on(verb, "prop5-k2")
    on("verify-eigenpair", "prop5-k2", "--pair", "pair-prop5-k2.json",
       pair="pair-prop5-k2.json", pair_from="rho:prop5-k2")

    with open(path("jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh, indent=1)
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory to write the inputs and jobs.json to")
    parser.add_argument("--src", required=True,
                        help="directory holding the hypersym package that writes the inputs")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from hypersym.cli import main as cli_main
    from hypersym.fixtures import FIXTURE_NAMES

    jobs = write_contract(args.out, cli_main, FIXTURE_NAMES)
    print(f"{len(jobs)} jobs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
