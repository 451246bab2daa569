"""The record differential: one SHA-256 per verdict class over generated checks.

    PYTHONHASHSEED=0 python3 tests/record_digest.py

For each of the seeds 0..9,999 of ``tests/generators`` it checks the
generated formula on the generated lasso unbounded and under every step
budget 1..2·|Q|+2, with the oracle cross-check off and on.  Each check gives one record: its
status, witness, reason, residual, reached configuration and stats, or the
class and message of the exception it raised.  The records are grouped by
class (holds, fails, unknown, error) and each group is digested in seed
order, so a change that alters any verdict, witness or counter changes a
digest.  ``tests/record_digest.txt`` holds the digests; CI compares the
output with it.

The file name keeps it out of pytest collection.  Model reprs list
frozensets, whose order follows string hashes, so the runner refuses to
run unless ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import generators  # noqa: E402
from reconfcheck import check  # noqa: E402
from reconfcheck.checker import CheckOptions  # noqa: E402

CLASSES = ("holds", "fails", "unknown", "error")
SEEDS = range(10000)


def records(seed: int):
    """(class, record text) for every check of one seed."""
    f, a, c0, ops = generators.gen_case(seed)
    for max_steps in (None, *range(1, 2 * a.n_states + 3)):
        for crosscheck in (False, True):
            head = f"{seed} {max_steps} {crosscheck}"
            try:
                v = check(f, a, c0, ops, CheckOptions(max_steps, crosscheck))
            except Exception as exc:  # noqa: BLE001  (the error is the record)
                yield "error", f"{head} {type(exc).__name__}: {exc}"
                continue
            yield v.status, (f"{head} {v.status} {v.witness!r} {v.reason!r} "
                             f"{v.residual!r} {v.reached!r} {v.stats!r}")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("error: set PYTHONHASHSEED=0: model reprs follow string hashes", file=sys.stderr)
        return 2
    digests = {cls: hashlib.sha256() for cls in CLASSES}
    counts = dict.fromkeys(CLASSES, 0)
    for seed in SEEDS:
        for cls, text in records(seed):
            digests[cls].update(text.encode() + b"\n")
            counts[cls] += 1
    print(f"seeds {SEEDS[0]}..{SEEDS[-1]}")
    for cls in CLASSES:
        print(f"{cls} {counts[cls]} {digests[cls].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
