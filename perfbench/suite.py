"""Run every workload and print every metric with its unit; save a results file.

    python3 perfbench/suite.py --seeds 1 2 3 --trace --out before.json

Each (workload, seed) pair is one ``run.py`` process with ``--trace 0`` and
the ``run_seconds`` of ``BENCHMARK.json``, so every results file measures
the same work; with ``--trace`` each workload also gets one traced run on
the first seed.  The
results file keeps every run's metrics plus, per metric, the median and the
first and third quartiles over the seeds; ``diff.py`` compares two of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over the runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": first["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="results file (default under .perfbench/)")
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    results = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": summarize(runs)}
        if args.trace:
            traced = run_once(workload, args.seeds[0], seconds, 1)
            entry["per_layer"] = summarize([traced])
            entry["correct"] = entry["correct"] and traced["correct"]
        results["workloads"][workload] = entry

        print(f"{workload}: {entry['attempted']} checks, {entry['failed']} failed, "
              f"correct={entry['correct']}")
        for section in ("end_to_end", "per_layer"):
            for name, m in entry.get(section, {}).items():
                print(f"  {name:40s} {m['median']:14.4f} {m['unit']:6s} "
                      f"[q1 {m['q1']:.4f}, q3 {m['q3']:.4f}]")

    out = args.out or ROOT / ".perfbench" / f"results-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"results written to {out}")
    return 0 if all(w["correct"] for w in results["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
