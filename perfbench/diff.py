"""Compare two results files metric by metric, workload by workload.

    python3 perfbench/diff.py base.json new.json

For every metric present in both files it prints the base median, the new
median and their ratio new/base, with the base's quartile spread so a
reader can tell a change from noise.  Direction and bounds come from
``BENCHMARK.json`` for end-to-end metrics; per-layer metrics have none.
Files whose runs measured different amounts of work (other ``seconds``)
are not compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ratio(new: float, base: float) -> str:
    if base == 0:
        return "   n/a" if new else "  1.000"
    return f"{new / base:7.3f}"


def _runs(entry: dict) -> int:
    return len(next(iter(entry["end_to_end"].values()))["values"])


def diff(base: dict, new: dict, spec: dict) -> list[str]:
    rules = {m["name"]: m for m in spec.get("end_to_end", [])}
    lines = []
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        b, n = base["workloads"][workload], new["workloads"][workload]
        lines.append(f"== {workload}  (base: {_runs(b)} runs, new: {_runs(n)} runs)")
        lines.append(f"  {'metric':40s} {'base':>14s} {'new':>14s} {'new/base':>8s}  "
                     f"{'base spread':>11s}  verdict")
        for section in ("end_to_end", "per_layer"):
            for name in b.get(section, {}):
                if name not in n.get(section, {}):
                    continue
                bm, nm = b[section][name], n[section][name]
                spread = (bm["q3"] - bm["q1"]) / bm["median"] if bm["median"] else 0.0
                verdict = ""
                rule = rules.get(name) if section == "end_to_end" else None
                if rule and bm["median"]:
                    change = nm["median"] / bm["median"] - 1
                    worse = change if rule["better"] == "lower" else -change
                    verdict = "worse than bound" if worse > rule["bound"] else "within bound"
                lines.append(f"  {name:40s} {bm['median']:14.4f} {nm['median']:14.4f} "
                             f"{_ratio(nm['median'], bm['median'])}  {spread:10.1%}  "
                             f"{verdict} {bm['unit']}".rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    if base["seconds"] != new["seconds"]:
        print(f"diff: {args.base} ran {base['seconds']} s per run, {args.new} "
              f"{new['seconds']} s: their rounds, sample counts and tails differ",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8")) if spec_path.is_file() else {}
    print(f"base: {args.base}\nnew:  {args.new}")
    print("\n".join(diff(base, new, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
