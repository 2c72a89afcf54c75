"""Run tier-1 on hand-written mutants of the package and list those that survive.

Each mutant in MUTANTS replaces one exact text of one file with another: a
check made wrong on purpose.  For each, the repository is copied to a
temporary directory, the mutant is applied to the copy, and tier-1 runs
there with ``-x``.  A mutant that tier-1 passes survives: no test notices
the wrong program.  The tool prints one line per mutant, with the first
test that failed, and exits 1 when some mutant survives.

    python3 tools/mutants.py

A survivor is mended by a test that fails on it, never by editing the
check, or it is shown to be equivalent and its entry says why.  A test
added to kill a mutant adds its mutant here.  ``tests/test_tools.py``
checks that each old text occurs exactly once in its file, so that a move
cannot leave this list pointing at nothing.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    kill: str  # the test expected to fail first, as pytest names it


MUTANTS = (
    Mutant("gf2-conflict-walk", "src/hypersym/parity.py",
           "if (rest & rows).bit_count() & 1:", "if (rest & rows).bit_count() & 0:",
           "tests/test_acceptance.py::test_criterion_01_two_part_family"),
    Mutant("coloring-check", "src/hypersym/parity.py",
           "np.all(sums % r == r // 2)", "np.all(sums % r != 0)",
           "tests/test_cli.py::TestConvertCertificate::"
           "test_coloring_with_a_sum_other_than_half_r_exit_3[6]"),
    Mutant("transversal-check", "src/hypersym/parity.py",
           "sum(axis=1) % 2 == 1))", "sum(axis=1) % 2 >= 0))",
           "tests/test_cli.py::TestConvertCertificate::test_invalid_certificate_rejected"),
    Mutant("convergence-exit", "src/hypersym/cli.py",
           "        return CONVERGENCE_ERROR\n", "        return PRECONDITION_ERROR\n",
           "tests/test_cli.py::TestRho::test_convergence_failure_exit_4"),
    Mutant("residual-denominator", "src/hypersym/floatpath.py",
           "    return num / den\n", "    return num / (2 * den)\n",
           "tests/test_cli.py::test_rho_and_verify_eigenpair_stdout_bytes_pinned[edge-r6]"),
    Mutant("nonnegative-check", "src/hypersym/tensor.py",
           "v.is_real and v.re >= 0 for", "v.is_real and v.re >= -1 for",
           "tests/test_cli.py::TestRho::test_precondition_failure_exit_3"),
    Mutant("stall-count", "src/hypersym/floatpath.py",
           "_STALL_ITERATIONS, _STALL_STEP = 3,", "_STALL_ITERATIONS, _STALL_STEP = 2,",
           # test_near_the_float_limits[stops-by-stalling] fails on it too
           "tests/test_spectra.py::TestPowerStepOracle::test_tuple_tensors_with_a_diagonal"),
    Mutant("transport-kind", "src/hypersym/spectra.py",
           'kind = "H" if (pair.kind == "H" and real) else "general"', "kind = pair.kind",
           "tests/test_spectra.py::TestNegationMaps::test_complex_map_makes_general_pairs"),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".bench_work")


def apply(mutant: Mutant, root: str) -> None:
    """Replace the mutant's old text with its new one in the tree at ``root``."""
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} "
                         f"times in {mutant.path}, not once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> tuple[str | None, float]:
    """The first test that fails on the mutant (None: it survives), and the run's seconds."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"],
                              cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return None, seconds
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1], seconds
    return f"pytest exit {proc.returncode}", seconds


def main() -> int:
    survivors = []
    for mutant in MUTANTS:
        killer, seconds = run(mutant)
        if killer is None:
            survivors.append(mutant.name)
            print(f"{mutant.name}: SURVIVES ({seconds:.0f} s)", flush=True)
        else:
            note = "" if killer == mutant.kill else f"; expected {mutant.kill}"
            print(f"{mutant.name}: killed by {killer} ({seconds:.0f} s{note})", flush=True)
    print(f"{len(survivors)} survivors" + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
