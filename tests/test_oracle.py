import random

from reconfcheck import (
    Always,
    EventSpec,
    After,
    build_automaton,
    eval_cp,
    is_idempotent_sequence,
    oracle_eval,
    oracle_verdict,
    parse_formula,
    parse_path,
    unfold_to_lasso,
)
from reconfcheck.checker import cycle_entry_model
from reconfcheck.model import CpEvalError, TrueAtom
from reconfcheck.oracle import _Sigma

import generators


def test_finite_path_unfolds_completely(http_model, http_ops):
    a = build_automaton(parse_path("run RemoveCacheHandler AddCacheHandler"))
    l = unfold_to_lasso(a, http_model, http_ops)
    assert l.complete
    assert l.period_start is None
    assert len(l.entries) == 4  # k operations -> k+1 configurations


def test_stripped_section31_path_stabilizes(http_model, http_ops, base_automaton):
    l = unfold_to_lasso(base_automaton, http_model, http_ops, compare_erased=True)
    # detection latches onto the earliest repeating pair, which here occurs
    # mid-pass (the run transition re-starting everything), with the period
    # exactly one cycle traversal long
    assert l.period == 5
    assert l.period_start == 5
    assert not l.complete
    # the configuration pairs repeat only up to parameter values: the exact
    # unfolding keeps growing instead
    exact = unfold_to_lasso(base_automaton, http_model, http_ops, max_rounds=8)
    assert exact.period_start is None


def test_deviation_increment_never_stabilizes(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    l = unfold_to_lasso(a, http_model, http_ops, max_rounds=30)
    assert l.period_start is None
    assert not l.complete
    assert len(l.entries) == 31


def test_oracle_example2_on_section31(http_model, http_ops, base_automaton, cache_formula):
    assert oracle_verdict(cache_formula, base_automaton, http_model, http_ops) is True


def test_oracle_deviation_counterexample(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    f = parse_formula("always [RequestHandler.deviation < 100]")
    l = unfold_to_lasso(a, http_model, http_ops, max_rounds=50)
    assert oracle_eval(f, l) is False
    # with too small a window the truth is not yet determined
    short = unfold_to_lasso(a, http_model, http_ops, max_rounds=10)
    assert oracle_eval(f, short) is None


def test_oracle_always_true(http_model, http_ops, base_automaton):
    l = unfold_to_lasso(base_automaton, http_model, http_ops, compare_erased=True)
    assert oracle_eval(Always(TrueAtom()), l) is True


def test_oracle_total_on_periodic_lassos():
    rng = random.Random(4001)
    checked = 0
    while checked < 80:
        m = generators.gen_model(rng)
        recipes = generators.gen_recipes(rng, m)
        ops = recipes.operation_table()
        p = generators.gen_path(rng, sorted(recipes.recipes))
        a = build_automaton(p)
        l = unfold_to_lasso(a, m, ops, max_rounds=16)
        if l.period_start is None and not l.complete:
            continue
        f = generators.gen_formula(rng, m, sorted(recipes.recipes))
        try:
            value = oracle_eval(f, l)
        except CpEvalError:
            continue
        assert value is not None
        checked += 1


def _naive_after(f, l, periods=2):
    """Direct quantification over prefix + two explicit periods."""
    sig = _Sigma(l)
    horizon = sig.n + (2 * sig.t if sig.t else 0)
    result = True
    for i in range(1, horizon + 1):
        if sig.event(i, f.event):
            sub = _naive_suffix_always(f.inner, sig, i, horizon)
            if sub is False:
                return False
            result = result and bool(sub)
    return result


def _naive_suffix_always(inner, sig, start, horizon):
    assert isinstance(inner, Always)
    return all(eval_cp(inner.cp, sig.cfg(j)) for j in range(start, horizon + 1))


def test_suffix_coherence_with_naive_after_always():
    rng = random.Random(5150)
    agreed = 0
    while agreed < 60:
        m = generators.gen_model(rng)
        recipes = generators.gen_recipes(rng, m)
        ops = recipes.operation_table()
        p = generators.gen_path(rng, sorted(recipes.recipes))
        a = build_automaton(p)
        l = unfold_to_lasso(a, m, ops, max_rounds=16)
        if l.period_start is None:
            continue
        event = EventSpec(rng.choice(sorted(recipes.recipes) + ["run"]),
                          rng.choice(("normal", "exceptional", "terminates")))
        f = After(event, Always(generators.gen_cp(rng, m, depth=1)))
        try:
            direct = oracle_eval(f, l)
            naive = _naive_after(f, l)
        except CpEvalError:
            continue
        assert direct == naive
        agreed += 1


def test_event_wrap_at_period_boundary(http_model, http_ops):
    # a self-loop applying an identity-shaped operation repeats immediately:
    # the wrap-around transition must still be visible to event evaluation
    a = build_automaton(parse_path("(run)+"))
    l = unfold_to_lasso(a, http_model, http_ops)
    assert l.period_start == 0
    f = parse_formula("after run exceptional always [false]")
    assert oracle_eval(f, l) is False  # the exceptional run event does occur


def test_oracle_entry_model_matches_engine(http_model, http_ops, base_automaton):
    entry = cycle_entry_model(base_automaton, http_model, http_ops)
    l = unfold_to_lasso(base_automaton, http_model, http_ops, compare_erased=True)
    assert l.entries[3].model == entry
    cycle_ops = [http_ops[n] for n in base_automaton.cycle_labels()]
    assert is_idempotent_sequence(cycle_ops, entry, ignore_params=True)
