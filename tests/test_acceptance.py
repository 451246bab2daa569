"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.
"""

import random
import time

from reconfcheck import (
    AddComponent,
    Bind,
    RemoveComponent,
    Unbind,
    apply_primitive,
    apply_sequence,
    build_automaton,
    check,
    erasure_invariant,
    is_idempotent_sequence,
    oracle_eval,
    oracle_verdict,
    parse_formula,
    parse_model,
    parse_path,
    parse_recipes,
    print_formula,
    print_model,
    print_path,
    unfold_to_lasso,
)
from reconfcheck.adl import print_recipes as _print_recipes
from reconfcheck.checker import CheckOptions, REASON_CYCLE
from reconfcheck.model import CpEvalError

import generators

Q1_VARIANT = ("run (RemoveCacheHandler AddCacheHandler MemorySizeUp run "
              "AddFileServer DurationValidityUp DeleteFileServer)+")
QP1_VARIANT = ("run RemoveCacheHandler (AddCacheHandler MemorySizeUp run "
               "AddFileServer DurationValidityUp DeleteFileServer)+")


def _report(criterion: int, description: str, ok: bool):
    print(f"[criterion {criterion}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {description}"


def _timed_check(formula, automaton, model, ops):
    start = time.perf_counter()
    verdict = check(formula, automaton, model, ops)
    return verdict, time.perf_counter() - start


def test_criterion_1_base_case(http_model, http_ops, base_automaton, cache_formula):
    verdict, elapsed = _timed_check(cache_formula, base_automaton, http_model, http_ops)
    _report(1, "HTTP server, cycle re-entering after the prefix -> holds",
            verdict.is_holds and elapsed < 1.0)


def test_criterion_2_reenter_qprime1(http_model, http_ops, cache_formula):
    automaton = build_automaton(parse_path(QP1_VARIANT))
    verdict, elapsed = _timed_check(cache_formula, automaton, http_model, http_ops)
    _report(2, "HTTP server, cycle re-entering at q'1 -> holds",
            verdict.is_holds and elapsed < 1.0)


def test_criterion_3_reenter_q1(http_model, http_ops, cache_formula):
    automaton = build_automaton(parse_path(Q1_VARIANT))
    verdict, elapsed = _timed_check(cache_formula, automaton, http_model, http_ops)
    ok = verdict.is_fails and elapsed < 1.0
    if ok:
        witness = verdict.witness
        violating = witness.steps[witness.violation_index]
        # the violation sits on the revisited post-AddCacheHandler state
        # (state 2 of this automaton), reached on the second traversal
        ok = (violating.state == 2
              and witness.violation_index == len(witness.steps) - 1
              and len(witness.steps) == 10
              and verdict.stats.max_instance_transitions <= 2 * automaton.n_states)
    _report(3, "HTTP server, cycle re-entering at q1 -> fails at revisited q'1",
            ok)


def test_criterion_4_deviation_counterexample(http_model, http_ops):
    automaton = build_automaton(parse_path("(DeviationUp)+"))
    formula = parse_formula("always [RequestHandler.deviation < 100]")

    unbounded = check(formula, automaton, http_model, http_ops)
    ok = unbounded.is_unknown and unbounded.reason == REASON_CYCLE

    lasso = unfold_to_lasso(automaton, http_model, http_ops, max_rounds=50)
    ok = ok and oracle_eval(formula, lasso) is False

    bounded = check(formula, automaton, http_model, http_ops,
                    CheckOptions(max_steps=50))
    ok = ok and bounded.is_fails

    reset = build_automaton(parse_path("(DeviationReset)+"))
    ok = ok and check(formula, reset, http_model, http_ops).is_holds
    _report(4, "deviation++ -> unknown/false/fails; deviation:=99 -> holds", ok)


def test_criterion_5_idempotence_suite():
    rng = random.Random(20260810)
    kinds = (AddComponent, RemoveComponent, Bind, Unbind)
    per_kind = {k: 0 for k in kinds}
    failures = 0
    while min(per_kind.values()) < 200:
        m = generators.gen_model(rng)
        step = generators._gen_step(rng, m)
        if not isinstance(step, kinds):
            continue
        per_kind[type(step)] += 1
        once = apply_primitive(step, m)
        twice = apply_primitive(step, once)
        if once != twice:
            failures += 1
    ok = failures == 0
    _report(5, f"topological idempotence, {sum(per_kind.values())} samples "
               f"(>=200 per kind)", ok)

    # commuting-composition lemma: commuting idempotent pairs compose
    # idempotently on the sampled model
    pairs = 0
    lemma_failures = 0
    while pairs < 200:
        m = generators.gen_model(rng)
        f = generators._gen_step(rng, m)
        g = generators._gen_step(rng, m)
        if not isinstance(f, kinds) or not isinstance(g, kinds):
            continue
        fg = apply_primitive(g, apply_primitive(f, m))
        gf = apply_primitive(f, apply_primitive(g, m))
        if fg != gf:
            continue
        pairs += 1
        again = apply_primitive(g, apply_primitive(f, fg))
        if again != fg:
            lemma_failures += 1
    _report(5, f"commuting-composition lemma, {pairs} commuting pairs",
            lemma_failures == 0)


def _gated(formula, automaton, model, ops):
    if not automaton.has_cycle:
        return True
    entry = apply_sequence([ops[l] for l in automaton.prefix_labels()], model)
    cycle_ops = [ops[l] for l in automaton.cycle_labels()]
    return is_idempotent_sequence(cycle_ops, entry,
                                  ignore_params=erasure_invariant(formula, ops))


def test_criterion_6_and_7_oracle_equivalence_and_bounds():
    rng = random.Random(42)
    agreed = 0
    disagreements = []
    max_ratio = 0.0
    attempts = 0
    while agreed < 500:
        attempts += 1
        assert attempts < 50000, "generator failed to produce enough gated cases"
        model = generators.gen_model(rng)
        recipes = generators.gen_recipes(rng, model)
        ops = recipes.operation_table()
        names = sorted(recipes.recipes)
        path = generators.gen_path(rng, names)
        automaton = build_automaton(path)
        formula = generators.gen_formula(rng, model, names)
        try:
            if not _gated(formula, automaton, model, ops):
                continue
            verdict = check(formula, automaton, model, ops)
            reference = oracle_verdict(formula, automaton, model, ops)
        except CpEvalError:
            continue  # property not evaluable on this run's configurations
        if verdict.is_unknown or reference is None:
            disagreements.append((path, formula, verdict.status, reference))
            break
        if (verdict.is_holds) != reference:
            disagreements.append((path, formula, verdict.status, reference))
            break
        max_ratio = max(max_ratio,
                        verdict.stats.max_instance_transitions / (2 * automaton.n_states))
        agreed += 1
    _report(6, f"checker/oracle agreement on {agreed} gated random instances "
               f"(first disagreement: {disagreements[:1]})", not disagreements)
    _report(7, f"transition bound: max instance usage {max_ratio:.2f} of 2|Q|",
            max_ratio <= 1.0)


def test_criterion_8_round_trips():
    rng = random.Random(20260811)
    ok_models = ok_recipes = ok_paths = ok_formulas = 0
    for _ in range(500):
        m = generators.gen_model(rng)
        if parse_model(print_model(m)) == m:
            ok_models += 1
        rs = generators.gen_recipes(rng, m)
        if parse_recipes(_print_recipes(rs)) == rs:
            ok_recipes += 1
        p = generators.gen_path(rng, sorted(rs.recipes))
        if parse_path(print_path(p)) == p:
            ok_paths += 1
        f = generators.gen_formula(rng, m, sorted(rs.recipes))
        if parse_formula(print_formula(f)) == f:
            ok_formulas += 1
    counts = (ok_models, ok_recipes, ok_paths, ok_formulas)
    _report(8, f"parse/print round-trips on 500 instances each "
               f"(models/recipes/paths/formulas = {counts})",
            counts == (500, 500, 500, 500))
