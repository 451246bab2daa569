"""The lasso unfolder that the checker's unfolding operators and the oracle share.

Hand-unrolled runs pin down where it stops and what it reports; the
unfolding loop it replaced, ``reference_unfold``, is kept verbatim as the
reference for a differential test over generated lassos, with both keys,
round limits and transition limits.
"""

import gc
import random
import weakref
from itertools import islice
from typing import Mapping, Optional

import pytest
from hypothesis import given, settings, strategies as st

from reconfcheck import (
    Component,
    ComponentModel,
    EvolutionOperation,
    PathAutomaton,
    Unfolding,
    apply_evolution,
    apply_sequence,
    build_automaton,
    erase_param_values,
    parse_model,
    parse_path,
    parse_recipes,
    run_path,
    unfold_to_lasso,
)
from reconfcheck import checker
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


def test_finite_path_is_cut_at_its_terminal_state(http_model, http_ops):
    a = build_automaton(parse_path("run RemoveCacheHandler AddCacheHandler"))
    run = Unfolding(a, 0, http_model, run_path(a, http_ops, 0, http_model))
    states, labels, models = zip(*run)
    assert run.complete
    assert run.period_start is None
    assert states == (0, 1, 2, 3)
    assert labels == (None, "run", "RemoveCacheHandler", "AddCacheHandler")
    assert list(models) == _hand_unrolled(a, http_model, http_ops, 4)
    assert run.keys == list(models)


def test_period_starts_at_the_cycle_entry():
    c0 = parse_model("model M { component X { class K } }")
    ops = parse_recipes("op P { stop X } op A { start X } op B { stop X }").operation_table()
    a = build_automaton(parse_path("P (A B)+"))
    run = Unfolding(a, 0, c0, run_path(a, ops, 0, c0))
    states, _labels, models = zip(*run)
    # X started, stopped, started; B then stops X at the cycle entry again
    assert states == (0, 1, 2)
    assert [m.components["X"].state for m in models] == ["started", "stopped", "started"]
    assert run.period_start == a.back_target == 1
    assert not run.complete


def test_stripped_section31_path_repeats_mid_cycle_only_when_erased(
        http_model, http_ops, base_automaton):
    erased = Unfolding(base_automaton, 0, http_model,
                       run_path(base_automaton, http_ops, 0, http_model), erased=True)
    states, _labels, models = zip(*erased)
    # the repeated pair is the one after the run transition, two states into
    # the cycle, and the period is one traversal of it
    assert erased.period_start == 5
    assert states == (0, 1, 2, 3, 4, 5, 6, 7, 3, 4)
    assert list(models) == _hand_unrolled(base_automaton, http_model, http_ops, 10)
    assert erased.keys == [erase_param_values(m) for m in models]
    # the exact run keeps raising two parameters and never repeats
    exact = Unfolding(base_automaton, 0, http_model,
                      run_path(base_automaton, http_ops, 0, http_model))
    models = [c for _q, _label, c in islice(exact, 40)]
    assert models == _hand_unrolled(base_automaton, http_model, http_ops, 40)
    assert exact.period_start is None and not exact.complete


def test_drift_cycle_never_repeats(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    run = Unfolding(a, 0, http_model, run_path(a, http_ops, 0, http_model))
    deviation = [c.components["RequestHandler"].params["deviation"].value
                 for _q, _label, c in islice(run, 30)]
    assert deviation == list(range(deviation[0], deviation[0] + 30))
    assert run.period_start is None and not run.complete
    # up to parameter values the drift is the identity: it repeats at once
    erased = Unfolding(a, 0, http_model, run_path(a, http_ops, 0, http_model), erased=True)
    assert len(list(erased)) == 1
    assert erased.period_start == 0


def test_a_caller_that_stops_early_triggers_no_further_step(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    calls = []

    def transitions(q, c):
        while True:
            calls.append(q)
            label, q = a.succ(q)
            c = apply_evolution(http_ops[label], c).result
            yield label, q, c

    run = Unfolding(a, 0, http_model, transitions(0, http_model))
    entries = iter(run)
    next(entries)
    assert calls == []  # the first entry needs no transition
    for i, _entry in enumerate(entries, start=1):
        if i == 5:
            break
    assert len(calls) == 5
    assert run.period_start is None and not run.complete


def test_an_abandoned_run_is_freed_without_the_cycle_collector(
        http_model, http_ops, base_automaton):
    gc.disable()
    try:
        run = Unfolding(base_automaton, 0, http_model,
                        run_path(base_automaton, http_ops, 0, http_model), erased=True)
        for i, _entry in enumerate(run):
            if i == 2:
                break  # the run could go on: its generator is suspended
        key = weakref.ref(run.keys[0])  # an erased copy only the run holds
        del run
        assert key() is None
    finally:
        gc.enable()


class _Spent(Exception):
    pass


def _budgeted_unfold(a, c0, ops, limit, erased):
    """The unfolder on transitions that refuse the one past ``limit``."""

    def transitions(q, c):
        applied = 0
        while a.succ(q) is not None:
            if applied == limit:
                raise _Spent
            applied += 1
            label, q = a.succ(q)
            c = apply_evolution(ops[label], c).result
            yield label, q, c

    run = Unfolding(a, 0, c0, transitions(0, c0), erased=erased)
    entries = []
    try:
        for q, label, c in run:
            entries.append(LassoStep(q, c, label))
    except _Spent:
        pass
    return ConcreteLasso(a, tuple(entries), run.period_start, run.complete, erased)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=4), st.data())
def test_unfolder_agrees_with_the_loop_it_replaced(seed, erased, rounds, data):
    rng = random.Random(seed)
    c0 = generators.gen_model(rng)
    recipes = generators.gen_recipes(rng, c0)
    ops = recipes.operation_table()
    a = build_automaton(generators.gen_path(rng, sorted(recipes.recipes)))
    limit = data.draw(st.integers(min_value=1, max_value=2 * a.n_states))

    assert unfold_to_lasso(a, c0, ops, rounds, compare_erased=erased) == \
        reference_unfold(a, c0, ops, max_rounds=rounds, compare_erased=erased)
    windowed = reference_unfold(a, c0, ops, max_rounds=limit + 1, max_transitions=limit,
                                compare_erased=erased)
    assert _budgeted_unfold(a, c0, ops, limit, erased) == windowed
    if not erased:
        # a check's window reads the classes of the positions its run already
        # took, and takes the rest; its configurations are the run's
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


def _unfolded(seed, erased, cap):
    """A generated lasso's run, cut at ``cap`` entries: its entries, keys,
    period start and completeness."""
    rng = random.Random(seed)
    c0 = generators.gen_model(rng)
    recipes = generators.gen_recipes(rng, c0)
    a = build_automaton(generators.gen_path(rng, sorted(recipes.recipes)))
    run = Unfolding(a, 0, c0, run_path(a, recipes.operation_table(), 0, c0), erased=erased)
    entries = list(islice(run, cap))
    return entries, run.keys, run.period_start, run.complete


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_colliding_fingerprints_change_no_run(seed, erased):
    # == decides every repeat: with every component hashing alike, and then
    # with one hash for all models, the runs are those of real hashes
    cap = 40
    expected = _unfolded(seed, erased, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Component, "__hash__", lambda self: 7)
        assert _unfolded(seed, erased, cap) == expected
        mp.setattr(ComponentModel, "__hash__", lambda self: 0)
        assert _unfolded(seed, erased, cap) == expected
