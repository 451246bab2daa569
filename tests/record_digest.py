"""The record differential: one SHA-256 per verdict class over generated checks.

    python3 tests/record_digest.py

For each of the seeds 0..9,999 of ``tests/generators`` it checks the
generated formula on the generated lasso unbounded and under every step
budget 1..2·|Q|+2, with the oracle cross-check off and on.  Each check gives
one record: its status, witness, reason, residual, reached configuration (as
its canonical ``.arch`` text) and stats, or the class and message of the
exception it raised.  The records are grouped by
class (holds, fails, unknown, error) and each group is digested in seed
order, so a change that alters any verdict, witness or counter changes a
digest.  A second record set, digested on lines of its own, checks the same
cases with every property leaf drawn ill-formed
(``generators.gen_ill_formed_case``), so the message of a ``CpEvalError``
and the point where a check raises it, or a refused cycle that keeps it from
being raised, are pinned too.  ``tests/record_digest.txt`` holds the
digests; CI compares the output with it.

The file name keeps it out of pytest collection.  A reached configuration
is printed by ``print_model``, which sorts components and bindings, so no
record depends on string hashes and any ``PYTHONHASHSEED`` gives the same
digests.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import generators  # noqa: E402
from reconfcheck import check, print_model  # noqa: E402
from reconfcheck.checker import CheckOptions  # noqa: E402

CLASSES = ("holds", "fails", "unknown", "error")
SEEDS = range(10000)
ILL_FORMED_SEEDS = range(10000)


def records(seed: int, case=generators.gen_case):
    """(class, record text) for every check of one seed."""
    f, a, c0, ops = case(seed)
    for max_steps in (None, *range(1, 2 * a.n_states + 3)):
        for crosscheck in (False, True):
            head = f"{seed} {max_steps} {crosscheck}"
            try:
                v = check(f, a, c0, ops, CheckOptions(max_steps, crosscheck))
            except Exception as exc:  # noqa: BLE001  (the error is the record)
                yield "error", f"{head} {type(exc).__name__}: {exc}"
                continue
            reached = None if v.reached is None else print_model(v.reached)
            yield v.status, (f"{head} {v.status} {v.witness!r} {v.reason!r} "
                             f"{v.residual!r} {reached!r} {v.stats!r}")


def main() -> int:
    digest(SEEDS)
    digest(ILL_FORMED_SEEDS, generators.gen_ill_formed_case, "ill-formed ")
    return 0


def digest(seeds: range, case=generators.gen_case, title: str = "") -> None:
    """Print the seed range and one count and SHA-256 per class, each line led by ``title``."""
    digests = {cls: hashlib.sha256() for cls in CLASSES}
    counts = dict.fromkeys(CLASSES, 0)
    for seed in seeds:
        for cls, text in records(seed, case):
            digests[cls].update(text.encode() + b"\n")
            counts[cls] += 1
    print(f"{title}seeds {seeds[0]}..{seeds[-1]}")
    for cls in CLASSES:
        print(f"{title}{cls} {counts[cls]} {digests[cls].hexdigest()}")


if __name__ == "__main__":
    sys.exit(main())
