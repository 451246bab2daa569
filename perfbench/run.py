"""Time-to-verdict benchmark for reconfcheck.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload scaled-holds --seed 1 --seconds 24 --trace 0

Each run is one closed loop: a single caller in one process starts the next
check only when the previous verdict is in.  It walks whole rounds of a
fixed rotation of cases made from ``--seed`` and times every check from its
input (argv, or text) to its verdict and exit code.  A time is the CPU time
the process spent, which for this single-threaded loop is its wall time
less the time the machine gave the CPU to others (a virtual machine's
steal time, which no change to the program can move).  Every round has its
own inputs: the same sizes and shapes as the other rounds, so the same
cost, but other seeded contents and other component and operation names,
so no check of a run repeats the input text of another, and a cache kept
across checks cannot make a later round cheaper than a one-shot check.
``--seconds`` sets how much work a run measures: as many whole rounds as
took about that long at the commit that defined the benchmark
(``ROUND_SECONDS``).  Every commit thus measures the same checks, and
percentiles keep their sample counts.

The CPU of a shared machine also runs up to 2x slower for seconds at a
time, so each time is scaled to the speed of a reference machine
(``speed.py``).
The median and the tail are Harrell-Davis estimates, which weigh the
neighbours of the order statistic they are centred on.
Each outcome is compared with an answer that ``check`` did not produce
(``expect.py``): a wrong verdict, exit code, reason or witness, an
unexpected exception, or more transitions than the paper's bound allows,
fails the check.

Workloads (why each exists is in ``BENCHMARK.json``):

* ``scaled-holds``        ``reconfcheck check`` (in process, text report)
                          on generated lassos where every formula holds.
* ``scaled-fails-oracle`` the same generator with ``--oracle --json``, on
                          formulas violated late and on bounded drift cycles.
* ``small-mix``           library calls from text, ``oracle_crosscheck=True``,
                          on acceptance-style random cases and the HTTP study.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
rounds (at least one) untraced, then as many further rounds (other inputs of
the same cost) with every layer wrapped from outside (``tracer.py``), and
prints per-layer metrics per check plus the tracing overhead; its spans go
to ``.perfbench/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people.  The program is imported from ``src/`` of the
checkout and nowhere else: without it the run exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("scaled-holds", "scaled-fails-oracle", "small-mix")

SETUP_SAMPLES = 21
SMALL_CASES = 1500
# Seconds one round of a rotation took, for every workload, at the commit
# that defined the benchmark (2-core x86-64 container, Python 3.11.7).
ROUND_SECONDS = 8.0
REFERENCE_EVERY_S = 0.1


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not (SRC / "reconfcheck" / "__init__.py").is_file():
        sys.exit(f"perfbench: no reconfcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reconfcheck

    if not Path(reconfcheck.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: reconfcheck was imported from {reconfcheck.__file__}")


_import_program()

import expect  # noqa: E402
import scaled  # noqa: E402
import small  # noqa: E402
import speed  # noqa: E402
from reconfcheck import CheckOptions, build_automaton, check, parse_formula, \
    parse_model, parse_path, parse_recipes  # noqa: E402
from reconfcheck import cli  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


class Api:
    """The benchmark's call sites into the library; the tracer rebinds them."""

    def __init__(self):
        self.run_cli = cli.run_cli
        self.parse_model = parse_model
        self.parse_recipes = parse_recipes
        self.parse_path = parse_path
        self.parse_formula = parse_formula
        self.build_automaton = build_automaton
        self.check = check


class VerdictTap:
    """Keeps the Verdict ``run_cli`` computed, for the transition-bound gate."""

    def __init__(self):
        self.last = None
        self._original = cli.check

    def __enter__(self):
        def tapped(*args, **kwargs):
            self.last = verdict = self._original(*args, **kwargs)
            return verdict

        cli.check = tapped
        return self

    def __exit__(self, *exc):
        cli.check = self._original


@dataclass
class Job:
    """One check of the rotation.

    ``call`` is the timed part.  ``inspect`` then looks at its outcome and
    at the Verdict the tap saw.
    """

    name: str
    call: Callable[[Api], object]
    inspect: Callable[[object, object], "Inspection"]


@dataclass(frozen=True)
class Inspection:
    verdict: object  # the Verdict, or None when the check raised
    error: Optional[str]  # why the outcome is wrong, or None
    digests_shown: int  # digests the outcome shows its reader
    bound_ratio: float  # share of the transition bound the check used


# --- the workloads --------------------------------------------------------------

def _cli_call(argv: list[str]) -> Callable[[Api], tuple[int, str]]:
    def call(api: Api) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = api.run_cli(argv)
        return code, out.getvalue()

    return call


def _cli_inspect(exp: expect.Expected, as_json: bool):
    verify = expect.verify_cli_json if as_json else expect.verify_cli_text

    def inspect(outcome, verdict) -> Inspection:
        if isinstance(outcome, BaseException):
            return Inspection(None, f"raised {type(outcome).__name__}: {outcome}", 0, 0.0)
        code, out = outcome
        if verdict is None:
            return Inspection(None, f"exit {code} without a verdict: {out[:120]!r}", 0, 0.0)
        ratio = expect.bound_ratio(verdict, exp)
        err = verify(code, out, exp)
        if err is None and ratio > 1:
            err = f"transition bound exceeded: ratio {ratio:.3f}"
        shown = len(verdict.witness.steps) if verdict.witness is not None else 0
        if not as_json and verdict.reached is not None:
            shown += 1  # the text report prints the reached model's digest
        return Inspection(verdict, err, shown, ratio)

    return inspect


def _interleave(groups: list[list]) -> list:
    """Round-robin over the groups, so every stretch of the rotation mixes sizes."""
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# File sets of one round, as (structure, N components, K cycle slots, Bump,
# shapes or None for all of the structure's shapes).  A round covers N in
# {200, 800, 1600}, K in {10, 20}, and cycles with and without Bump, in
# about eight seconds.  Its costliest cases -- N = 1600, and before-always
# at N = 800, in scaled-holds; N = 1600, and N = 800 except drift-budget,
# in scaled-fails-oracle -- take about a second each, so over three rounds
# they are the 12 or 15 costliest checks and the tail, centred on the 11th
# costliest, falls among them.  The N = 200 cases, ten of each round, hold
# the median.
SCALED_HOLDS_SETS = [("holds", 1600, 10, False, ("always-forall",
                                                 "after-terminates-eventually")),
                     ("holds", 1600, 10, True, ("after-normal-always",)),
                     ("holds", 800, 10, True, ("before-always", "eventually")),
                     ("holds", 200, 20, False, None),
                     ("holds", 200, 10, True, None)]
SCALED_FAILS_SETS = [("late", 1600, 10, False, ("always-late", "eventually-never")),
                     ("late", 800, 20, False, ("after-normal-always-late",
                                               "before-always-late")),
                     ("drift", 800, 10, True, None),
                     ("late", 200, 20, False, None),
                     ("late", 200, 10, False, None),
                     ("drift", 200, 10, True, None)]


def scaled_jobs(workload: str, seed: int, rnd: int, workdir: Path) -> list[Job]:
    """Round ``rnd`` of a scaled rotation: its own lassos, under namespace R<rnd>."""
    rng = random.Random(f"{workload}/{seed}/{rnd}")
    holds = workload == "scaled-holds"
    groups = []
    for i, (structure, n, k, bump, shapes) in enumerate(SCALED_HOLDS_SETS if holds
                                                        else SCALED_FAILS_SETS):
        lasso = scaled.make_lasso(rng, structure, n, k, bump, ns=f"R{rnd}")
        files = {}
        for ext in ("arch", "ops", "rp"):
            files[ext] = workdir / f"r{rnd}-set{i}.{ext}"
            files[ext].write_text(getattr(lasso, ext), encoding="utf-8")
        if structure == "holds":
            cases = scaled.holds_cases(lasso)
        elif structure == "late":
            cases = scaled.fails_cases(lasso)
        else:
            cases = scaled.drift_cases(lasso)
        replay = None
        if not holds:
            recipes = parse_recipes(lasso.ops)
            replay = expect.Replay(parse_model(lasso.arch), recipes.operation_table(),
                                   build_automaton(parse_path(lasso.rp)))
        group = []
        for case in cases:
            if shapes is not None and case.shape not in shapes:
                continue
            argv = ["check", "--model", str(files["arch"]), "--ops", str(files["ops"]),
                    "--path", str(files["rp"]), "--formula", case.formula]
            if case.max_steps is not None:
                argv += ["--max-steps", str(case.max_steps)]
            if not holds:
                argv += ["--oracle", "--json"]
            exp = expect.expect_scaled(case, replay)
            group.append(Job(f"{case.shape}-{lasso.tag}@R{rnd}", _cli_call(argv),
                             _cli_inspect(exp, not holds)))
        groups.append(group)
    return _interleave(groups)


def _small_call(case: small.SmallCase) -> Callable[[Api], object]:
    opts = CheckOptions(max_steps=case.max_steps, oracle_crosscheck=True)

    def call(api: Api):
        model = api.parse_model(case.arch)
        recipes = api.parse_recipes(case.ops)
        names = recipes.names()
        automaton = api.build_automaton(api.parse_path(case.rp, known_ops=names))
        formula = api.parse_formula(case.formula, known_ops=names)
        return api.check(formula, automaton, model, recipes.operation_table(), opts)

    return call


def _small_inspect(exp: expect.Expected):
    def inspect(outcome, _tapped) -> Inspection:
        err = expect.verify_small(outcome, exp)
        if isinstance(outcome, BaseException):
            return Inspection(None, err, 0, 0.0)
        shown = len(outcome.witness.steps) if outcome.witness is not None else 0
        return Inspection(outcome, err, shown, expect.bound_ratio(outcome, exp))

    return inspect


def small_rounds(seed: int, rounds: int) -> list[list[Job]]:
    """``rounds`` renamed copies of the small-mix rotation.

    A renamed case has its original's answer, so the oracle runs at most
    once per case; each copy is replayed on its own texts to check its
    witness.
    """
    expectations: dict[str, expect.Expected] = {}  # the HTTP cases recur
    base = []
    for case in small.rotation(seed, SMALL_CASES, ROOT / "samples"):
        if case.name not in expectations:
            expectations[case.name] = expect.expect_small(case)
        base.append((case, expectations[case.name]))
    out = []
    for rnd in range(rounds):
        jobs = []
        for case, exp in base:
            copy = small.renamed(case, f"R{rnd}")
            jobs.append(Job(copy.name, _small_call(copy),
                            _small_inspect(expect.expect_renamed(exp, copy))))
        out.append(jobs)
    return out


def make_rounds(workload: str, seed: int, rounds: int, workdir: Path) -> list[list[Job]]:
    if workload == "small-mix":
        return small_rounds(seed, rounds)
    return [scaled_jobs(workload, seed, rnd, workdir) for rnd in range(rounds)]


# --- measuring ----------------------------------------------------------------------

@dataclass
class Measured:
    """What one measured stretch of rounds saw.

    ``times`` holds the time of every check, in seconds at reference speed
    (``speed.py``).
    """

    times: list[float] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    cpu_seconds: float = 0.0  # unscaled check time
    speed: list[float] = field(default_factory=list)  # reference / measured, per stretch
    failures: list[str] = field(default_factory=list)
    max_bound_ratio: float = 0.0
    transitions: int = 0
    cp_evaluations: int = 0
    digests_shown: int = 0

    @property
    def checks(self) -> int:
        return len(self.times)

    @property
    def seconds(self) -> float:
        return sum(self.times)


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fresh_import_seconds() -> float:
    """CPU time of a fresh interpreter importing ``reconfcheck.cli``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import reconfcheck.cli"
    start = _children_cpu()
    subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, check=True)
    return _children_cpu() - start


def measure(rounds: list[list[Job]], api: Api, tap: VerdictTap,
            tracer: Optional[Tracer] = None, setup_samples: int = 0) -> Measured:
    """Run the rounds' checks one at a time, in order.

    Every check's time is scaled to reference speed by the reference runs
    taken before and after the stretch of checks it belongs to (a stretch
    ends once ``REFERENCE_EVERY_S`` have passed).  ``setup_samples``
    fresh-interpreter imports are spread evenly between the checks, so
    set-up time is sampled across the whole run.
    """
    jobs = [job for jobs_of_round in rounds for job in jobs_of_round]
    m = Measured()
    total = len(jobs)
    setup_at = {total * k // setup_samples for k in range(setup_samples)}
    before = speed.reference_seconds()
    stretch_start = time.perf_counter()
    stretch: list[float] = []
    for i in range(total):
        if i in setup_at:
            start_ref = speed.reference_seconds()
            elapsed = fresh_import_seconds()
            m.setup_times.append(speed.scale(elapsed, start_ref, speed.reference_seconds()))
        job = jobs[i]
        tap.last = None
        if tracer is not None:
            tracer.begin_check()
        start = time.process_time()
        try:
            outcome = job.call(api)
        except Exception as exc:  # a raise is an outcome the check must classify
            outcome = exc
        elapsed = time.process_time() - start
        if tracer is not None:
            tracer.end_check()
        stretch.append(elapsed)
        if time.perf_counter() - stretch_start >= REFERENCE_EVERY_S or i == total - 1:
            after = speed.reference_seconds()
            m.times.extend(speed.scale(t, before, after) for t in stretch)
            m.cpu_seconds += sum(stretch)
            m.speed.append(speed.REFERENCE_SECONDS * 2 / (before + after))
            before, stretch, stretch_start = after, [], time.perf_counter()
        seen = job.inspect(outcome, tap.last)
        if seen.error is not None:
            m.failures.append(f"{job.name}: {seen.error}")
        if seen.verdict is not None:
            m.transitions += seen.verdict.stats.transitions_applied
            m.cp_evaluations += seen.verdict.stats.cp_evaluations
        m.max_bound_ratio = max(m.max_bound_ratio, seen.bound_ratio)
        m.digests_shown += seen.digests_shown
    return m


def harrell_davis(ordered: list[float], a: int) -> float:
    """Harrell-Davis estimate of the ``a``-th smallest of ``len(ordered)`` values.

    A mean of all the sorted values, weighted by the Beta(a, n + 1 - a)
    distribution over ((i - 1)/n, i/n] for the i-th smallest, so the estimate
    moves smoothly when noise swaps neighbouring values instead of jumping to
    the next one.  Cell weights are integrated by Simpson's rule.
    """
    n = len(ordered)
    b = n + 1 - a
    log_norm = math.lgamma(n + 1) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [pdf(i / n) + 4 * pdf((i + 0.5) / n) + pdf((i + 1) / n) for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n % 2:
        return harrell_davis(ordered, (n + 1) // 2)
    return (harrell_davis(ordered, n // 2) + harrell_davis(ordered, n // 2 + 1)) / 2


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: (value, pct).

    The value is the Harrell-Davis estimate centred on the 11th largest
    sample.  With ten samples or fewer it is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return harrell_davis(ordered, n - 10), 100.0 * (n - 10) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(m: Measured) -> dict:
    ms = [t * 1000 for t in m.times]
    return {
        "verdict_ms.p50": _metric(median(ms), "ms"),
        "verdict_ms.tail": _metric(tail(ms)[0], "ms"),
        "checks_per_s": _metric(1000 * len(ms) / sum(ms), "1/s"),
        "ok_frac": _metric(1 - len(m.failures) / len(ms), "frac"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                               "MB"),
        "setup_s": _metric(statistics.median(m.setup_times), "s"),
    }


def per_layer(untraced: Measured, traced: Measured, tracer: Tracer) -> dict:
    n = traced.checks
    at_reference = statistics.median(traced.speed)  # span times are unscaled
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(tracer.calls[layer] / n, "count")
        metrics[f"{layer}.self_ms"] = _metric(
            tracer.self_s[layer] * 1000 * at_reference / n, "ms")
    digests = tracer.calls["adl.model_digest"]
    eval_calls = tracer.calls["model.eval_cp"]
    base_s, traced_s = untraced.seconds, traced.seconds
    metrics.update({
        "adl.model_digest.useful_frac":
            _metric(traced.digests_shown / digests if digests else 0.0, "frac"),
        "model.eval_cp.repeat_frac":
            _metric(tracer.eval_cp_repeats / eval_calls if eval_calls else 0.0, "frac"),
        "model.eval_cp.check_calls": _metric(tracer.eval_cp_check_calls / n, "count"),
        "checker.cp_evaluations": _metric(traced.cp_evaluations / n, "count"),
        "checker.transitions_applied": _metric(traced.transitions / n, "count"),
        "checker.instance_bound_ratio": _metric(traced.max_bound_ratio, "ratio"),
        "oracle.unfold_to_lasso.entries":
            _metric(tracer.lasso_entries["oracle.unfold_to_lasso"] / n, "count"),
        "oracle._unfold.entries": _metric(tracer.lasso_entries["oracle._unfold"] / n, "count"),
        "trace.untraced_ms": _metric(base_s * 1000 / n, "ms"),
        "trace.traced_ms": _metric(traced_s * 1000 / n, "ms"),
        "trace.overhead_ms": _metric((traced_s - base_s) * 1000 / n, "ms"),
        "trace.overhead_frac": _metric(traced_s / base_s - 1, "frac"),
        "trace.spans": _metric(tracer.span_count / n, "count"),
    })
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / "cases" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if not args.trace:
            rounds = make_rounds(args.workload, args.seed, rounds_for(args.seconds), workdir)
        else:
            half = max(1, rounds_for(args.seconds) // 2)
            rounds = make_rounds(args.workload, args.seed, 2 * half, workdir)
        api = Api()
        with VerdictTap() as tap:
            if not args.trace:
                fresh_import_seconds()  # byte-compiles the sources once
                m = measure(rounds, api, tap, setup_samples=SETUP_SAMPLES)
                metrics = end_to_end(m)
                attempted, failures = m.checks, m.failures
            else:
                base = measure(rounds[:half], api, tap)
                tracer = Tracer()
                tracer.install(api)
                try:
                    traced = measure(rounds[half:], api, tap, tracer)
                finally:
                    tracer.uninstall()
                metrics = per_layer(base, traced, tracer)
                tracer.write_spans(OUT / "spans" / f"{args.workload}-{args.seed}.jsonl")
                attempted = base.checks + traced.checks
                failures = base.failures + traced.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {attempted} checks in {len(rounds)} "
          f"rounds of {len(rounds[0])} cases, {len(failures)} failed")
    print(f"  failed_frac {len(failures) / attempted:.4f}")
    if not args.trace:
        _tail, pct = tail(m.times)
        print(f"  verdict_ms.tail is p{pct:.1f}, centred on the 11th largest of {attempted} "
              f"checks, each on its own input")
        print(f"  checker.instance_bound_ratio max {m.max_bound_ratio:.3f} (gate: <= 1)")
        print(f"  {m.cpu_seconds:.1f} s of checks (CPU); machine at "
              f"{statistics.median(m.speed):.2f}x reference speed (median)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
