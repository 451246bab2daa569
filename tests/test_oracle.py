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
from test_erasure import _reset_case


def reference_oracle_verdict(f, a, c0, ops):
    """``oracle_verdict`` as it was before it looked at windows: each pass
    unfolds to its end, then evaluates once."""
    value = oracle_eval(f, unfold_to_lasso(a, c0, ops))
    if value is None and erasure_invariant(f, ops):
        value = oracle_eval(f, unfold_to_lasso(a, c0, ops, compare_erased=True))
    return value


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
    f, a, c0, ops = generators.gen_case(seed)
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
        f, a, c0, ops = generators.gen_case(seed)
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


def _recorded_passes(monkeypatch, calls: list) -> list:
    """One (length of ``calls`` when it began, its windows) per pass of the
    oracle."""
    passes = []
    windows = oracle._windows

    def recorded(*args):
        passes.append((len(calls), []))
        for lasso in windows(*args):
            passes[-1][1].append(lasso)
            yield lasso

    monkeypatch.setattr(oracle, "_windows", recorded)
    return passes


@pytest.mark.parametrize("text", [
    "after AddX5 normal always [bound(W0.o, W1.i)]",
    "before RmX9 normal always [forall x in bindings (present(x))]",
])
def test_each_pass_evaluates_a_property_once_per_position(monkeypatch, text):
    # the exact pass never repeats (Hub.level drifts) and the formula cannot
    # read parameters, so it stops after the gate's two laps, settling
    # nothing; the erased pass then decides
    a, c0, ops = _drift_lasso(4, 10)
    f = parse_formula(text)
    calls = _evaluations(monkeypatch)
    passes = _recorded_passes(monkeypatch, calls)
    assert oracle_verdict(f, a, c0, ops) is True
    assert [len(lassos) for _start, lassos in passes] == [1, 1]
    exact, erased = passes[0][1][-1], passes[1][1][-1]
    assert exact.period_start is None and not exact.erased_compare
    assert erased.erased_compare and erased.period_start is not None
    # the initial configuration, the prefix and two laps of the cycle
    assert len(exact.entries) <= len(a.prefix_labels()) + 2 * len(a.cycle_labels()) + 1
    ends = [start for start, _lassos in passes[1:]] + [len(calls)]
    for (start, lassos), end in zip(passes, ends):
        _assert_once_per_position(calls[start:end], lassos[-1])


def test_a_formula_reading_parameters_keeps_the_long_exact_pass(monkeypatch):
    # Hub.level reaches 4 in the fourth lap, past the gate's two
    a, c0, ops = _drift_lasso(4, 10)
    f = parse_formula("always [Hub.level < 4]")
    assert not erasure_invariant(f, ops)
    applied = _counted_applications(monkeypatch)
    assert oracle_verdict(f, a, c0, ops) is False
    assert len(applied) == 1 + 4 * 31  # decided by the 4-lap window


def test_a_cycle_the_exact_gate_admits_is_decided_by_the_exact_pass(monkeypatch, http_model,
                                                                    http_ops):
    # the CacheHandler added back is outside HttpServer, so the first lap
    # changes the model and the exact run repeats only in the second
    a = build_automaton(parse_path("(RemoveCacheHandler AddCacheHandler)+"))
    entry = cycle_entry_model(a, http_model, http_ops)
    assert is_idempotent_sequence([http_ops[label] for label in a.cycle_labels()], entry)
    assert unfold_to_lasso(a, http_model, http_ops, max_rounds=1).period_start is None
    f = parse_formula("always [component(RequestHandler)]")
    assert erasure_invariant(f, http_ops)
    passes = _recorded_passes(monkeypatch, [])
    assert oracle_verdict(f, a, http_model, http_ops) is True
    assert len(passes) == 1
    (lasso,) = passes[0][1]
    assert not lasso.erased_compare and lasso.period_start is not None


def _event_tests(monkeypatch) -> list:
    """The (position, event) of every ``event_holds`` call the oracle makes."""
    calls = []
    holds = oracle.event_holds
    monkeypatch.setattr(oracle, "event_holds", lambda prev, nxt, label, e, i:
                        calls.append((i, e)) or holds(prev, nxt, label, e, i))
    return calls


@pytest.mark.parametrize("text", [
    "after run terminates after run exceptional eventually [component(CacheHandler)]",
    "after run normal before AddCacheHandler terminates always [component(FileServer1)]",
    "after RemoveCacheHandler normal after run terminates after run exceptional "
    "always [component(RequestHandler)]",
])
def test_nested_events_are_tested_once_per_transition(monkeypatch, http_model, http_ops, text):
    # every occurrence of an outer event scans the inner event's occurrences
    # again; each scan reads the values kept for the transitions
    a = build_automaton(parse_path("run (RemoveCacheHandler run AddCacheHandler run run)+"))
    f = parse_formula(text)
    lasso = unfold_to_lasso(a, http_model, http_ops)
    assert lasso.period_start is not None
    tested = _event_tests(monkeypatch)
    value = oracle_eval(f, lasso)
    sig = _Sigma(lasso)
    pairs = {(id(e), sig.wrap(i - 1)) for i, e in tested}
    assert tested and len(tested) == len(pairs)
    # the same evaluation testing the transition again at every reading
    monkeypatch.setattr(_Sigma, "event", lambda sig, i, e: i > 0 and sig._event(i, e))
    tested.clear()
    assert oracle_eval(f, unfold_to_lasso(a, http_model, http_ops)) is value
    assert len(tested) > len(pairs)


def _drift_formula(rng: random.Random, k: int, depth: int = 2) -> str:
    """A formula over the names of ``_drift_lasso(n, k)``; about one in four
    reads ``Hub.level`` or has a ``Bump`` event."""
    j = rng.randrange(k)
    cp = rng.choice((f"component(X{j})", f"not bound(X{j}.feed, Hub.in{j})",
                     "bound(W0.o, W1.i)", "false", f"component(X{j}) or Hub.level < 3"))
    trace = f"{rng.choice(('always', 'eventually'))} [{cp}]"
    if depth == 0 or rng.random() < 0.4:
        return trace
    event = f"{rng.choice((f'AddX{j}', f'RmX{j}', 'run', 'run', 'Bump'))} " \
        f"{rng.choice(generators.MODALITIES)}"
    if rng.random() < 0.35:
        return f"before {event} {trace}"
    return f"after {event} {_drift_formula(rng, k, depth - 1)}"


def _capped(f, a, c0, ops) -> bool:
    """Does the 64-lap exact pass look past the gate's two laps, which the
    oracle's exact pass of an erasure-invariant formula does not?"""
    return erasure_invariant(f, ops) and \
        oracle_eval(f, unfold_to_lasso(a, c0, ops, max_rounds=2)) is None


def test_the_capped_exact_pass_agrees_with_the_long_one_on_drifting_lassos():
    rng = random.Random(2020)
    capped = 0
    for n, k in ((2, 1), (3, 2), (2, 3)):
        a, c0, ops = _drift_lasso(n, k)
        for _ in range(40):
            f = parse_formula(_drift_formula(rng, k))
            assert oracle_verdict(f, a, c0, ops) is reference_oracle_verdict(f, a, c0, ops), f
            capped += _capped(f, a, c0, ops)
    resets = 0
    rng = random.Random(2024)
    for _ in range(1000):
        f, a, c0, ops = _reset_case(rng)
        if not erasure_invariant(f, ops):
            continue
        try:
            expected = reference_oracle_verdict(f, a, c0, ops)
        except CpEvalError:
            continue
        assert oracle_verdict(f, a, c0, ops) is expected, (f, a, c0)
        resets += _capped(f, a, c0, ops)
    assert capped >= 30 and resets >= 20, (capped, resets)


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
        f, a, c0, ops = generators.gen_case(seed)
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
