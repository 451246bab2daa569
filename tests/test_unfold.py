"""The oracle's unfolding of a lasso (``oracle.unfold_to_lasso``, and the
lazy run of windows under it, ``oracle._windows``).

Hand-unrolled runs pin down where it stops and what it reports; the
unfolding loop it replaced, ``reference_unfold``, is kept verbatim as the
reference for a differential test over generated lassos, with both keys,
round limits and, for a check's window, transition limits.
"""

import gc
import random
import weakref
from typing import Mapping, Optional

import pytest
from hypothesis import given, settings, strategies as st

from reconfcheck import (
    Component,
    ComponentModel,
    EvolutionOperation,
    PathAutomaton,
    apply_evolution,
    apply_sequence,
    build_automaton,
    erase_param_values,
    parse_model,
    parse_path,
    parse_recipes,
    unfold_to_lasso,
)
from reconfcheck import checker, oracle, reconfig
from reconfcheck.oracle import ConcreteLasso, LassoStep

import generators


def reference_unfold(a: PathAutomaton, c0: ComponentModel,
                     ops: Mapping[str, EvolutionOperation], start: int = 0,
                     max_rounds: int = 64, max_transitions: Optional[int] = None,
                     compare_erased: bool = False) -> ConcreteLasso:
    key = erase_param_values if compare_erased else (lambda m: m)
    entries: list[LassoStep] = [LassoStep(start, c0, None)]
    keys = [key(c0)]
    by_state: dict[int, list[int]] = {start: [0]}
    q, c = start, c0
    rounds = 0
    applied = 0
    while True:
        nxt = a.succ(q)
        if nxt is None:
            return ConcreteLasso(a, tuple(entries), None, True, compare_erased)
        if max_transitions is not None and applied >= max_transitions:
            return ConcreteLasso(a, tuple(entries), None, False, compare_erased)
        label, q2 = nxt
        c2 = apply_evolution(ops[label], c).result
        k2 = key(c2)
        applied += 1
        if q == a.q_max:
            rounds += 1
        for idx in by_state.get(q2, ()):
            if keys[idx] == k2:
                return ConcreteLasso(a, tuple(entries), idx, False, compare_erased)
        entries.append(LassoStep(q2, c2, label))
        keys.append(k2)
        by_state.setdefault(q2, []).append(len(entries) - 1)
        q, c = q2, c2
        if rounds >= max_rounds:
            return ConcreteLasso(a, tuple(entries), None, False, compare_erased)


def _hand_unrolled(a, c0, ops, n):
    """The first ``n`` configurations of the run, one operation at a time."""
    labels = [a.labels[q] for q in _states(a, n - 1)]
    return [apply_sequence([ops[label] for label in labels[:i]], c0) for i in range(n)]


def _states(a, n):
    q, states = 0, []
    for _ in range(n):
        states.append(q)
        q = a.succ(q)[1]
    return states


def _columns(lasso):
    """The states, incoming labels and models of a lasso's entries."""
    return zip(*((e.state, e.incoming_label, e.model) for e in lasso.entries))


def test_finite_path_is_cut_at_its_terminal_state(http_model, http_ops):
    a = build_automaton(parse_path("run RemoveCacheHandler AddCacheHandler"))
    lasso = unfold_to_lasso(a, http_model, http_ops)
    states, labels, models = _columns(lasso)
    assert lasso.complete
    assert lasso.period_start is None
    assert states == (0, 1, 2, 3)
    assert labels == (None, "run", "RemoveCacheHandler", "AddCacheHandler")
    assert list(models) == _hand_unrolled(a, http_model, http_ops, 4)


def test_period_starts_at_the_cycle_entry():
    c0 = parse_model("model M { component X { class K } }")
    ops = parse_recipes("op P { stop X } op A { start X } op B { stop X }").operation_table()
    a = build_automaton(parse_path("P (A B)+"))
    lasso = unfold_to_lasso(a, c0, ops)
    states, _labels, models = _columns(lasso)
    # X started, stopped, started; B then stops X at the cycle entry again
    assert states == (0, 1, 2)
    assert [m.components["X"].state for m in models] == ["started", "stopped", "started"]
    assert lasso.period_start == a.back_target == 1
    assert not lasso.complete


def test_stripped_section31_path_repeats_mid_cycle_only_when_erased(
        http_model, http_ops, base_automaton):
    erased = unfold_to_lasso(base_automaton, http_model, http_ops, compare_erased=True)
    states, _labels, models = _columns(erased)
    # the repeated pair is the one after the run transition, two states into
    # the cycle, and the period is one traversal of it
    assert erased.period_start == 5
    assert states == (0, 1, 2, 3, 4, 5, 6, 7, 3, 4)
    assert list(models) == _hand_unrolled(base_automaton, http_model, http_ops, 10)
    # the exact run keeps raising two parameters and never repeats
    exact = unfold_to_lasso(base_automaton, http_model, http_ops, max_rounds=8)
    models = [e.model for e in exact.entries]
    assert len(models) == 44
    assert models == _hand_unrolled(base_automaton, http_model, http_ops, 44)
    assert exact.period_start is None and not exact.complete


def test_drift_cycle_never_repeats(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    lasso = unfold_to_lasso(a, http_model, http_ops, max_rounds=30)
    deviation = [e.model.components["RequestHandler"].params["deviation"].value
                 for e in lasso.entries]
    assert deviation == list(range(deviation[0], deviation[0] + 31))
    assert lasso.period_start is None and not lasso.complete
    # up to parameter values the drift is the identity: it repeats at once
    erased = unfold_to_lasso(a, http_model, http_ops, compare_erased=True)
    assert len(erased.entries) == 1
    assert erased.period_start == 0


def test_a_caller_that_stops_early_triggers_no_further_step(http_model, http_ops, monkeypatch):
    a = build_automaton(parse_path("(DeviationUp)+"))
    applied = []
    apply = reconfig.apply_evolution
    monkeypatch.setattr(reconfig, "apply_evolution",
                        lambda op, m: applied.append(op) or apply(op, m))
    windows = oracle._windows(a, http_model, http_ops, 64, False, looks=(2, 4))
    assert applied == []  # nothing runs before the first window is asked for
    # each window is handed on as soon as its last entry is in: every
    # transition applied so far made an entry of it
    for laps in (2, 4):
        lasso = next(windows)
        assert len(lasso.entries) == laps + 1
        assert len(applied) == laps
        assert lasso.period_start is None and not lasso.complete
    windows.close()
    assert len(applied) == 4


def test_an_abandoned_run_is_freed_without_the_cycle_collector(
        http_model, http_ops, base_automaton, monkeypatch):
    kept = []  # every erased copy the run makes, which only the run holds

    def erased(m):
        k = erase_param_values(m)
        kept.append(weakref.ref(k))
        return k

    monkeypatch.setattr(oracle, "erase_param_values", erased)
    gc.disable()
    try:
        windows = oracle._windows(base_automaton, http_model, http_ops, 64, True, looks=(1,))
        lasso = next(windows)  # the run could go on: its generator is suspended
        assert lasso.period_start is None
        assert len(lasso.entries) == base_automaton.n_states + 1
        assert len(kept) == len(lasso.entries) and all(k() is not None for k in kept)
        del windows
        assert all(k() is None for k in kept)
    finally:
        gc.enable()


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=4), st.data())
def test_unfolder_agrees_with_the_loop_it_replaced(seed, erased, rounds, data):
    rng = random.Random(seed)
    c0 = generators.gen_model(rng)
    recipes = generators.gen_recipes(rng, c0)
    ops = recipes.operation_table()
    a = build_automaton(generators.gen_path(rng, sorted(recipes.recipes)))

    assert unfold_to_lasso(a, c0, ops, rounds, compare_erased=erased) == \
        reference_unfold(a, c0, ops, max_rounds=rounds, compare_erased=erased)
    if not erased:
        # a check's window reads the classes of the positions its run already
        # took, and takes the rest; its configurations are the run's
        limit = data.draw(st.integers(min_value=1, max_value=2 * a.n_states))
        windowed = reference_unfold(a, c0, ops, max_rounds=limit + 1, max_transitions=limit)
        run = checker._Run(a, ops, c0, erased=rng.random() < 0.5)
        run.extend_to(data.draw(st.integers(min_value=0, max_value=2 * a.n_states)))
        window = checker._unfold(run, limit)
        n, back = len(window.entries), window.automaton.back_target
        complete = back is None and a.succ(run.steps[n - 1][1]) is None
        assert (back, complete) == (windowed.period_start, windowed.complete)
        assert [(run.steps[i][1], window.automaton.labels[i - 1] if i else None)
                for i in range(n)] == [(e.state, e.incoming_label) for e in windowed.entries]
        assert [c for _pos, c in run.configurations(range(n))] == \
            [e.model for e in windowed.entries]


def _unfolded(seed, erased):
    """A generated lasso's unfolding, cut after four laps."""
    rng = random.Random(seed)
    c0 = generators.gen_model(rng)
    recipes = generators.gen_recipes(rng, c0)
    a = build_automaton(generators.gen_path(rng, sorted(recipes.recipes)))
    return unfold_to_lasso(a, c0, recipes.operation_table(), 4, compare_erased=erased)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_colliding_fingerprints_change_no_run(seed, erased):
    # == decides every repeat: with every component hashing alike, and then
    # with one hash for all models, the runs are those of real hashes
    expected = _unfolded(seed, erased)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Component, "__hash__", lambda self: 7)
        assert _unfolded(seed, erased) == expected
        mp.setattr(ComponentModel, "__hash__", lambda self: 0)
        assert _unfolded(seed, erased) == expected
