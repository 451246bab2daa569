import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from reconfcheck import (
    Always,
    CheckOptions,
    EventSpec,
    After,
    build_automaton,
    check,
    erasure_invariant,
    eval_cp,
    is_idempotent_sequence,
    oracle_eval,
    oracle_verdict,
    parse_formula,
    parse_model,
    parse_path,
    parse_recipes,
    unfold_to_lasso,
)
from reconfcheck import checker, oracle, reconfig
from reconfcheck.checker import cycle_entry_model
from reconfcheck.model import CpEvalError, TrueAtom
from reconfcheck.oracle import _Sigma

import generators


def reference_oracle_verdict(f, a, c0, ops):
    """``oracle_verdict`` as it was before it looked at windows: each pass
    unfolds to its end, then evaluates once."""
    value = oracle_eval(f, unfold_to_lasso(a, c0, ops))
    if value is None and erasure_invariant(f, ops):
        value = oracle_eval(f, unfold_to_lasso(a, c0, ops, compare_erased=True))
    return value


def _generated_case(seed: int):
    rng = random.Random(seed)
    model = generators.gen_model(rng)
    recipes = generators.gen_recipes(rng, model)
    names = sorted(recipes.recipes)
    a = build_automaton(generators.gen_path(rng, names))
    return generators.gen_formula(rng, model, names), a, model, recipes.operation_table()


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


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_windowed_verdict_equals_the_two_pass_reference(seed):
    f, a, c0, ops = _generated_case(seed)
    try:
        expected = reference_oracle_verdict(f, a, c0, ops)
    except CpEvalError:
        assume(False)
    assert oracle_verdict(f, a, c0, ops) is expected


def test_generated_verdicts_are_decided_by_truncated_windows_too(monkeypatch):
    # the differential above means something only if the 2..32-lap windows
    # decide some generated cases
    seen = []
    evaluate = oracle.oracle_eval

    def recorded(f, lasso):
        value = evaluate(f, lasso)
        seen.append((lasso.erased_compare, lasso.period_start is None and not lasso.complete,
                     value))
        return value

    monkeypatch.setattr(oracle, "oracle_eval", recorded)
    early = 0
    for seed in range(300):
        f, a, c0, ops = _generated_case(seed)
        seen.clear()
        try:
            oracle_verdict(f, a, c0, ops)
        except CpEvalError:
            continue
        erased, truncated, value = seen[-1]
        windows = sum(1 for e, _t, _v in seen if e == erased)
        early += truncated and value is not None and windows < 6
    assert early >= 10


def _drift_lasso(n: int, k: int):
    """A drift lasso as the scaled benchmark builds it: ``run (Bump AddX0 run
    RmX0 ... AddX<k-1> run RmX<k-1>)+``, where ``Bump`` raises ``Hub.level``
    by one per lap."""
    hub = "component Hub { class Hub param level : int = 0 input head : TW " + \
        " ".join(f"input in{j} : TX" for j in range(k)) + " }"
    workers = " ".join(f"component W{i} {{ class Worker input i : TW output o : TW }}"
                       for i in range(n))
    binds = " ".join(f"bind W{i}.o -> W{i + 1}.i" for i in range(n - 1))
    model = parse_model(f"model Scaled {{ {hub} {workers} {binds} bind W{n - 1}.o -> Hub.head }}")
    recipes = parse_recipes("op Bump { set Hub.level := param(Hub.level) + 1 } " + " ".join(
        f"op AddX{j} {{ add component X{j} {{ class Extra output feed : TX }} "
        f"bind X{j}.feed -> Hub.in{j} }} op RmX{j} {{ remove component X{j} }}"
        for j in range(k)))
    cycle = " ".join(f"AddX{j} run RmX{j}" for j in range(k))
    a = build_automaton(parse_path(f"run (Bump {cycle})+"))
    return a, model, recipes.operation_table()


def _counted_applications(monkeypatch) -> list:
    applied = []
    apply = reconfig.apply_evolution
    monkeypatch.setattr(reconfig, "apply_evolution",
                        lambda op, m: applied.append(op) or apply(op, m))
    return applied


def test_oracle_stops_at_the_first_window_that_decides(monkeypatch):
    a, c0, ops = _drift_lasso(4, 10)
    f = parse_formula("always [Hub.level < 2]")  # violated at index 33, in lap 2
    applied = _counted_applications(monkeypatch)
    assert oracle_verdict(f, a, c0, ops) is False
    # the prefix and two laps of 31 operations: 64 entries
    assert len(applied) == 1 + 2 * 31
    applied.clear()
    assert reference_oracle_verdict(f, a, c0, ops) is False
    assert len(applied) == 1 + 64 * 31  # 1,986 entries


def _evaluations(monkeypatch) -> list:
    """The (property, configuration) of every ``eval_cp`` call the oracle
    makes, kept so no id is reused."""
    calls = []
    evaluate = oracle.eval_cp
    monkeypatch.setattr(oracle, "eval_cp",
                        lambda cp, m: calls.append((cp, m)) or evaluate(cp, m))
    return calls


def _assert_once_per_position(calls: list, lasso) -> None:
    """At most one evaluation per (property, position): a model that sits at
    several positions may be evaluated once for each."""
    positions = Counter(id(step.model) for step in lasso.entries)
    made = Counter((id(cp), id(m)) for cp, m in calls)
    assert made and all(n <= positions[m] for (_cp, m), n in made.items()), \
        max(made.values())


@pytest.mark.parametrize("text", [
    "after AddX5 normal always [bound(W0.o, W1.i)]",
    "before RmX9 normal always [forall x in bindings (present(x))]",
])
def test_each_pass_evaluates_a_property_once_per_position(monkeypatch, text):
    # the exact pass never repeats (Hub.level drifts) and settles nothing in
    # 64 laps; the erased pass then decides
    a, c0, ops = _drift_lasso(4, 10)
    f = parse_formula(text)
    calls = _evaluations(monkeypatch)
    passes = []  # (index of the pass's first evaluation, its windows)
    windows = oracle._windows

    def recorded(*args):
        passes.append((len(calls), []))
        for lasso in windows(*args):
            passes[-1][1].append(lasso)
            yield lasso

    monkeypatch.setattr(oracle, "_windows", recorded)
    assert oracle_verdict(f, a, c0, ops) is True
    assert [len(lassos) for _start, lassos in passes] == [6, 1]
    assert len(passes[0][1][-1].entries) == 1986  # 64 laps, never periodic
    ends = [start for start, _lassos in passes[1:]] + [len(calls)]
    for (start, lassos), end in zip(passes, ends):
        _assert_once_per_position(calls[start:end], lassos[-1])


def test_a_gate_refused_window_is_walked_without_the_oracle(monkeypatch):
    a, c0, ops = _drift_lasso(4, 10)
    f = parse_formula("after AddX0 normal always [Hub.level >= 0]")  # observes the drift
    windows = []
    unfold = checker._unfold
    monkeypatch.setattr(checker, "_unfold", lambda *args: windows.append(unfold(*args))
                        or windows[-1])
    calls = _evaluations(monkeypatch)
    verdict = check(f, a, c0, ops, CheckOptions(max_steps=2 * a.n_states))
    assert verdict.status == "unknown" and len(windows) == 1
    assert len(windows[0].entries) == 1 + 2 * a.n_states
    assert calls == []  # the checker's walk evaluates every property
    assert 0 < verdict.stats.cp_evaluations <= len(windows[0].entries)


@pytest.mark.parametrize("text", [
    "always [Hub.level < 3 or started(X0)]",
    "after Bump normal always [Hub.level < 3 or started(X0)]",
])
def test_a_property_failing_on_a_later_configuration_raises_its_error(text):
    # X0 is absent wherever Hub.level is 3 or more: the 2-lap window
    # evaluates the property without error, the next one raises
    a, c0, ops = _drift_lasso(4, 10)
    f = parse_formula(text)
    message = r"^started\(\): unknown component 'X0'$"
    with pytest.raises(CpEvalError, match=message):
        oracle_verdict(f, a, c0, ops)
    with pytest.raises(CpEvalError, match=message):
        check(f, a, c0, ops, CheckOptions(max_steps=4 * a.n_states))


def test_one_lasso_evaluated_with_formula_after_formula(http_model, http_ops):
    # each formula is freed before the next is parsed, so a value kept by
    # the id of a dead property node would be read for a new one
    a = build_automaton(parse_path("run (RemoveCacheHandler AddCacheHandler)+"))
    lasso = unfold_to_lasso(a, http_model, http_ops)
    texts = ["always [component(CacheHandler)]", "always [component(FileServer1)]",
             "always [not component(FileServer1)]", "eventually [not component(CacheHandler)]",
             "always [started(RequestHandler)]", "eventually [component(Nowhere)]"]
    expected = [oracle_eval(parse_formula(text), unfold_to_lasso(a, http_model, http_ops))
                for text in texts]
    assert set(expected) == {True, False}
    for _ in range(20):
        assert [oracle_eval(parse_formula(text), lasso) for text in texts] == expected


def _top_level_evaluations(monkeypatch) -> list:
    """The windows ``_ev`` is called on from outside itself, by whether
    they were cut on parameter-erased models."""
    calls, depth = [], [0]
    ev = oracle._ev

    def counted(f, sig, s):
        if depth[0] == 0:
            calls.append(sig.erased)
        depth[0] += 1
        try:
            return ev(f, sig, s)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(oracle, "_ev", counted)
    return calls


def test_the_pass_matching_the_gate_evaluates_once(monkeypatch):
    calls = _top_level_evaluations(monkeypatch)
    passes = {False: 0, True: 0}
    for seed in range(600):
        f, a, c0, ops = _generated_case(seed)
        if not a.has_cycle:
            continue
        entry = cycle_entry_model(a, c0, ops)
        cycle = [ops[label] for label in a.cycle_labels()]
        calls.clear()
        try:
            value = oracle_verdict(f, a, c0, ops)
        except CpEvalError:
            continue
        if is_idempotent_sequence(cycle, entry):
            assert calls == [False], seed  # the exact pass ends before its 2-lap window
            passes[False] += 1
        elif is_idempotent_sequence(cycle, entry, ignore_params=True) and \
                erasure_invariant(f, ops) and True in calls:
            assert calls.count(True) == 1, seed
            assert value is not None
            passes[True] += 1
    assert passes[False] > 100 and passes[True] > 5


def test_windows_are_the_truncated_unfoldings(http_model, http_ops):
    a = build_automaton(parse_path("run (DeviationUp MemorySizeUp)+"))
    looks = (2, 4, 8, 16, 32)
    windows = list(oracle._windows(a, http_model, http_ops, 64, False, looks))
    assert windows == [unfold_to_lasso(a, http_model, http_ops, max_rounds=laps)
                       for laps in (*looks, 64)]
