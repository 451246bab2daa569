"""The machine's current speed, from a fixed reference computation.

The benchmark runs on shared machines whose CPU slows down or speeds up
by up to a factor of two for seconds at a time, in a way that process CPU
time does not see (a slow CPU burns more of it for the same work).  Raw
times of two runs of the same code then differ by more than the changes the
benchmark must detect.  So every run also times a fixed pure-Python
computation next to the checks, and scales each check's time by
``REFERENCE_SECONDS / (reference time measured around it)``: the times the
benchmark reports are CPU times at the reference machine's speed.

The computation does not touch reconfcheck, so no change to the program
can change it.
"""

from __future__ import annotations

import gc
import time

# median time of one reference run on the machine the benchmark was defined
# on (2-core x86-64 container, Python 3.11.7)
REFERENCE_SECONDS = 0.0018


def _reference_work() -> int:
    table = {}
    for i in range(4000):
        table[(i, str(i))] = [i, i * 2]
    return sum(v[1] for k, v in table.items() if k[0] % 3)


def reference_seconds() -> float:
    """Fastest of three reference runs, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.process_time()
            _reference_work()
            best = min(best, time.process_time() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference times, at reference speed."""
    return seconds * REFERENCE_SECONDS * 2 / (before + after)
