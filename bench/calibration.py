"""Host-speed calibration: a fixed kernel timed between the jobs of a run.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent from one minute to the next, and a run cannot outlast that drift.
The host switches between a fast and a slow state that each last for
seconds (the kernel takes about 1.5 or 2.5 ms), and a run spends a
different share of its time in each.  So the worker times `kernel`, a
fixed piece of work of the kinds the package does (tuple-keyed dicts,
Fractions and big integers, JSON, small numpy vectors), right before
every job and once after the last.  The kernel never calls the package,
so it runs the same for every version of it.

`scales` turns the kernel times into one factor per job: REFERENCE_S
over the mean of the two kernel times on either side of the job.  A job's
time times its factor is the time it would have taken on a host on which
the kernel takes REFERENCE_S, so the host's state cancels out of it; a
change in the package still moves it in full.

Set-up runs in fresh interpreters and is mostly the import of numpy and
the package, which a warm kernel does not track.  Its reference is this
file run as a script, in a fresh interpreter like a set-up run:

    python3 bench/calibration.py

prints the CPU seconds of importing numpy and running the kernel
SETUP_KERNELS times.  The run harness starts it before and after every
set-up run and scales each set-up time by SETUP_REFERENCE_S over the mean
of the two.
"""
from __future__ import annotations

import time

# As a script, the timing starts before numpy is imported.
_START_CPU = time.process_time()

import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402

# About the kernel's median on the 2-vCPU Intel Xeon host the bounds in
# BENCHMARK.json were set on; any constant would do, as long as it stays.
REFERENCE_S = 0.002
# The same for the script's CPU time, on the same host.
SETUP_REFERENCE_S = 0.2
SETUP_KERNELS = 50


def kernel() -> float:
    """Run the fixed work once with the cyclic GC off; return its seconds.

    The GC stays off so that the heap the jobs left behind does not change
    what the kernel costs.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    counts: dict[tuple, int] = {}
    for i in range(250):
        key = (i % 11, i % 7, i % 5, i % 3)
        counts[key] = counts.get(key, 0) + i
    total = Fraction(0)
    for k in range(1, 30):
        total += Fraction(k, k + 1)
    big = 1
    for k in range(1, 60):
        big = (big * (2 ** 61 - k)) % (3 ** 90)
    doc = json.loads(json.dumps(
        {"entries": [{"i": list(key), "v": str(total * v)} for key, v in counts.items()]}))
    x = numpy.arange(1.0, 65.0)
    for _ in range(20):
        x = x / numpy.linalg.norm(x)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    if len(doc["entries"]) != len(counts) or big < 0:
        raise AssertionError("calibration kernel gave a wrong answer")
    return elapsed


def scales(samples: list[float], reference: float = REFERENCE_S) -> list[float]:
    """Per timed step, the factor from its time to the reference host speed.

    ``samples[k]`` is the calibration time right before step k and
    ``samples[k + 1]`` the one right after it.
    """
    return [2 * reference / (before + after)
            for before, after in zip(samples, samples[1:])]


def main() -> int:
    for _ in range(SETUP_KERNELS):
        kernel()
    print(json.dumps({"cpu_s": time.process_time() - _START_CPU}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
