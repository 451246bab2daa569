"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: they exercise the benchmark's generators and checks, not the
program.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on the path)
import expect  # noqa: E402
import scaled  # noqa: E402
import small  # noqa: E402
from reconfcheck import build_automaton, eval_cp, oracle_verdict, parse_formula, \
    parse_model, parse_path, parse_recipes, unfold_to_lasso  # noqa: E402
from reconfcheck.oracle import oracle_eval_detailed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _load(lasso: scaled.Lasso, formula: str):
    recipes = parse_recipes(lasso.ops)
    return (parse_formula(formula, known_ops=recipes.names()),
            build_automaton(parse_path(lasso.rp, known_ops=recipes.names())),
            parse_model(lasso.arch), recipes.operation_table())


def _small_lassos(rng):
    # the last size is namespaced, as every round of a run is
    for n, k, ns in ((3, 2, ""), (5, 3, ""), (8, 4, "R1")):
        yield scaled.make_lasso(rng, "holds", n, k, ns=ns), "holds"
        yield scaled.make_lasso(rng, "holds", n, k, bump=True, ns=ns), "holds"
        yield scaled.make_lasso(rng, "late", n, k, ns=ns), "late"
        yield scaled.make_lasso(rng, "drift", n, k, ns=ns), "drift"


def test_scaled_expectations_agree_with_the_oracle_at_small_n():
    rng = random.Random(7)
    checked = 0
    for lasso, structure in _small_lassos(rng):
        if structure == "holds":
            for case in scaled.holds_cases(lasso):
                assert oracle_verdict(*_load(lasso, case.formula)) is True, case.shape
                checked += 1
        elif structure == "late":
            for case in scaled.fails_cases(lasso):
                f, a, m, ops = _load(lasso, case.formula)
                assert oracle_verdict(f, a, m, ops) is False, case.shape
                if case.violation is not None:
                    lasso_ = unfold_to_lasso(a, m, ops, compare_erased=True)
                    value, (idx, _desc) = oracle_eval_detailed(f, lasso_)
                    # the oracle names the violation by its representative
                    # inside the unfolded window
                    n, start = len(lasso_.entries), lasso_.period_start
                    wrapped = case.violation if case.violation < n else \
                        start + (case.violation - start) % (n - start)
                    assert (value, idx) == (False, wrapped), case.shape
                checked += 1
        else:
            for case in scaled.drift_cases(lasso):
                # the first position where the drifting level breaks the
                # property, against the budget the case gives the checker
                f, a, m, ops = _load(lasso, case.formula)
                replay = expect.Replay(m, ops, a)
                replay.extend(3 * lasso.n_states)
                first = next(i for i, c in enumerate(replay.configs)
                             if not eval_cp(f.cp, c))
                if case.expect == "fails":
                    assert first == case.violation <= case.max_steps, case.shape
                else:
                    assert first > case.max_steps, case.shape
                checked += 1
    assert checked == 3 * (2 * 5 + 4 + 2)


def test_scaled_cases_pass_their_checks_on_the_command_line(tmp_path):
    rng = random.Random(11)
    failures = []
    for lasso, structure in _small_lassos(rng):
        for ext in ("arch", "ops", "rp"):
            (tmp_path / f"l.{ext}").write_text(getattr(lasso, ext), encoding="utf-8")
        f0, a, m, ops = _load(lasso, "always [true]")
        replay = expect.Replay(m, ops, a)
        if structure == "holds":
            cases = scaled.holds_cases(lasso)
        elif structure == "late":
            cases = scaled.fails_cases(lasso)
        else:
            cases = scaled.drift_cases(lasso)
        for case in cases:
            as_json = structure != "holds"
            argv = ["check", "--model", str(tmp_path / "l.arch"), "--ops",
                    str(tmp_path / "l.ops"), "--path", str(tmp_path / "l.rp"),
                    "--formula", case.formula]
            if case.max_steps is not None:
                argv += ["--max-steps", str(case.max_steps)]
            if as_json:
                argv += ["--oracle", "--json"]
            exp = expect.expect_scaled(case, replay)
            job = run.Job(case.shape, run._cli_call(argv), run._cli_inspect(exp, as_json))
            with run.VerdictTap() as tap:
                seen = job.inspect(job.call(run.Api()), tap.last)
            if seen.error:
                failures.append(f"{case.shape}: {seen.error}")
    assert failures == []


def test_rounds_share_no_input_text(tmp_path):
    for workload in ("scaled-holds", "scaled-fails-oracle"):
        workdir = tmp_path / workload
        workdir.mkdir()
        rounds = run.make_rounds(workload, 3, 2, workdir)
        assert [j.name.split("@")[0] for j in rounds[0]] == \
            [j.name.split("@")[0] for j in rounds[1]]
        first = {f.name[3:]: f.read_text() for f in workdir.glob("r0-*")}
        second = {f.name[3:]: f.read_text() for f in workdir.glob("r1-*")}
        assert first.keys() == second.keys() and first
        assert all(first[name] != second[name] for name in first)
    case = small.http_cases(run.ROOT / "samples")[2]
    copies = [small.renamed(case, ns) for ns in ("R0", "R1")]
    for field in ("arch", "ops", "rp", "formula"):
        assert len({getattr(c, field) for c in copies + [case]}) == 3, field


def test_renamed_small_cases_keep_the_oracle_verdict():
    from reconfcheck import CpEvalError
    cases = small.generate(random.Random("renamed"), 200)
    for case in cases + small.http_cases(run.ROOT / "samples")[:3]:
        verdicts = []
        for c in (case, small.renamed(case, "R7")):
            model, ops, a, formula = expect._load(c)
            try:
                verdicts.append(oracle_verdict(formula, a, model, ops))
            except CpEvalError as exc:
                verdicts.append(type(exc))
        assert verdicts[0] == verdicts[1], case.name


def test_heavy_draws_are_the_first_oracle_heavy_cases():
    assert expect.heavy_draws(len(small.HEAVY_DRAWS)) == small.HEAVY_DRAWS
    frozen = small.generate(random.Random("small-mix"), run.SMALL_CASES)
    assert not any(expect.is_oracle_heavy(c) for c in frozen)


def test_small_cases_and_http_study_pass_their_checks():
    rounds = run.small_rounds(5, 2)
    jobs = rounds[0][:150] + rounds[1][:150]
    api = run.Api()
    errors = []
    for job in jobs:
        try:
            outcome = job.call(api)
        except Exception as exc:
            outcome = exc
        seen = job.inspect(outcome, None)
        if seen.error:
            errors.append(f"{job.name}: {seen.error}")
    assert errors == []
    assert {j.name.split("@")[0] for j in jobs} >= \
        {c.name for c in small.http_cases(run.ROOT / "samples")}


def test_a_wrong_witness_is_caught():
    case = next(c for c in small.http_cases(run.ROOT / "samples") if c.name == "http-q1")
    exp = expect.expect_small(case)
    verdict = run._small_call(case)(run.Api())
    assert expect.verify_small(verdict, exp) is None
    steps = list(verdict.witness.steps)
    steps[3] = type(steps[3])(steps[3].state, steps[3].label, "0" * 12)
    forged = type(verdict)(verdict.status, type(verdict.witness)(
        tuple(steps), verdict.witness.violation_index, verdict.witness.violated),
        stats=verdict.stats)
    assert "witness step 3" in expect.verify_small(forged, exp)


def test_tail_is_centred_on_the_eleventh_largest():
    values = [float(v) for v in range(1, 101)]
    value, pct = run.tail(values)
    assert pct == 90.0 and 89.0 < value < 91.0
    assert abs(run.tail([5.0] * 40)[0] - 5.0) < 1e-9
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_median_is_the_harrell_davis_median():
    assert abs(run.median([float(v) for v in range(1, 101)]) - 50.5) < 1e-9
    assert abs(run.median([1.0, 2.0, 3.0]) - 2.0) < 1e-9
    assert 1.0 < run.median([1.0, 1.0, 1.0, 9.0]) < 3.0  # below the mean


def test_tracer_counts_calls_where_they_are_made_and_restores_them():
    import reconfcheck.checker as checker
    import reconfcheck.model as model

    original = checker.eval_cp
    api = run.Api()
    tracer = Tracer()
    tracer.install(api)
    try:
        assert checker.eval_cp is not original
        assert model.eval_cp is original  # the recursion inside model is left alone
        case = small.http_cases(run.ROOT / "samples")[0]
        tracer.begin_check()
        verdict = run._small_call(case)(api)
        tracer.end_check()
    finally:
        tracer.uninstall()
    assert checker.eval_cp is original
    assert verdict.is_holds
    assert tracer.calls["checker.check"] == 1
    assert tracer.calls["model.eval_cp"] >= verdict.stats.cp_evaluations > 0
    assert tracer.calls["adl.model_digest"] > 0
    assert sum(tracer.self_s[layer] for layer in LAYERS) > 0
    assert all(parent < span for _c, span, parent, *_ in tracer.spans)


def test_benchmark_json_lists_every_metric_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    m = run.Measured(times=[0.01, 0.02] * 10, setup_times=[0.1], speed=[1.0])
    end_to_end = run.end_to_end(m)
    assert [e["name"] for e in spec["end_to_end"]] == list(end_to_end)
    assert all(end_to_end[e["name"]]["unit"] == e["unit"] for e in spec["end_to_end"])
    per_layer = run.per_layer(m, m, Tracer())
    assert sorted(p["name"] for p in spec["per_layer"]) == sorted(per_layer)
    assert all(per_layer[p["name"]]["unit"] == p["unit"] for p in spec["per_layer"])


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
