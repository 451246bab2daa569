import gc
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reconfcheck import (
    AdlValidationError,
    Always,
    Binding,
    Component,
    ComponentModel,
    CpEvalError,
    EventSpec,
    Eventually,
    Param,
    STARTED,
    STOPPED,
    apply_evolution,
    apply_sequence,
    build_automaton,
    check,
    erasure_invariant,
    is_idempotent_sequence,
    is_suffix_monotone,
    oracle_verdict,
    parse_cp,
    parse_formula,
    parse_model,
    parse_path,
    parse_recipes,
    print_path,
    residual_from,
    unfold_to_lasso,
)
from reconfcheck import checker, oracle, reconfig
from reconfcheck.adl import model_digest
from reconfcheck.checker import CheckError, CheckOptions, REASON_BUDGET, REASON_CYCLE
from reconfcheck.cli import run_cli
from reconfcheck.ftpl import After, Before
from reconfcheck.model import Bound, ComponentPresent, FalseAtom, TrueAtom, component_sum
from reconfcheck.oracle import oracle_eval_detailed

import generators

Q1_VARIANT = ("run (RemoveCacheHandler AddCacheHandler MemorySizeUp run "
              "AddFileServer DurationValidityUp DeleteFileServer)+")
QP1_VARIANT = ("run RemoveCacheHandler (AddCacheHandler MemorySizeUp run "
               "AddFileServer DurationValidityUp DeleteFileServer)+")
SERVER_PATH = (Path(__file__).resolve().parents[1] / "samples" / "server.rp").read_text()
# a cycle whose configurations recur, each time with objects of their own
CACHE_CYCLE = ("(RemoveCacheHandler AddCacheHandler)+",
               "after AddCacheHandler normal always [component(CacheHandler)]")


def cache_connected():
    return Bound("CacheHandler", "cache", "RequestHandler", "getCache")


def test_base_path_holds(http_model, http_ops, base_automaton, cache_formula):
    verdict = check(cache_formula, base_automaton, http_model, http_ops)
    assert verdict.is_holds
    assert verdict.stats.max_instance_transitions <= 2 * base_automaton.n_states


def test_qprime1_variant_holds(http_model, http_ops, cache_formula):
    a = build_automaton(parse_path(QP1_VARIANT))
    verdict = check(cache_formula, a, http_model, http_ops)
    assert verdict.is_holds
    assert verdict.stats.max_instance_transitions <= 2 * a.n_states


def test_q1_variant_fails_at_revisited_state(http_model, http_ops, cache_formula):
    a = build_automaton(parse_path(Q1_VARIANT))
    verdict = check(cache_formula, a, http_model, http_ops)
    assert verdict.is_fails
    w = verdict.witness
    assert w.violation_index == len(w.steps) - 1
    # state 2 is the automaton's post-AddCacheHandler state, revisited on
    # the second traversal of the cycle
    assert w.steps[w.violation_index].state == 2
    assert w.steps[w.violation_index].label == "RemoveCacheHandler"
    assert verdict.stats.max_instance_transitions <= 2 * a.n_states


def test_non_idempotent_cycle_unknown(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    f = parse_formula("always [RequestHandler.deviation < 100]")
    verdict = check(f, a, http_model, http_ops)
    assert verdict.is_unknown
    assert verdict.reason == REASON_CYCLE
    assert print_path(verdict.residual) == "(DeviationUp)+"
    assert verdict.reached == http_model


def test_bounded_check_finds_deviation_violation(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    f = parse_formula("always [RequestHandler.deviation < 100]")
    verdict = check(f, a, http_model, http_ops, CheckOptions(max_steps=55))
    assert verdict.is_fails
    assert verdict.witness.violation_index == 50  # deviation reaches 100 there


# the four formulas fail (or hold) within a few laps of the drift cycle
# deviation++ from 50, which the idempotence gate refuses
DRIFT_CASES = [
    ("always [RequestHandler.deviation < 53]", "fails"),
    ("eventually [RequestHandler.deviation = 55]", "holds"),
    ("before DeviationUp normal always [RequestHandler.deviation < 53]", "fails"),
    ("after DeviationUp normal always [RequestHandler.deviation < 53]", "fails"),
]


@pytest.mark.parametrize("text, status", DRIFT_CASES)
def test_drift_cycle_is_never_judged_by_two_passes(text, status, http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    f = parse_formula(text)
    unbounded = check(f, a, http_model, http_ops)
    assert (unbounded.status, unbounded.reason) == ("unknown", REASON_CYCLE)
    bounded = check(f, a, http_model, http_ops,
                    CheckOptions(max_steps=8, oracle_crosscheck=True))
    assert bounded.status == status
    if status == "fails":
        assert bounded.witness.violation_index == 3
    assert oracle_verdict(f, a, http_model, http_ops) is (status == "holds")


@pytest.mark.parametrize("crosscheck", [False, True])
def test_after_over_a_non_monotone_inner_on_a_cut_window(crosscheck, http_model, http_ops):
    # the first DeviationUp's inner formula is still undetermined where the
    # 20-step window is cut; the second one's fails at position 3
    a = build_automaton(parse_path("(DeviationUp)+"))
    f = parse_formula("after DeviationUp normal before DeviationUp normal "
                      "eventually [RequestHandler.deviation < 52]")
    assert check(f, a, http_model, http_ops).reason == REASON_CYCLE
    verdict = check(f, a, http_model, http_ops,
                    CheckOptions(max_steps=20, oracle_crosscheck=crosscheck))
    assert verdict.status == "fails"
    assert verdict.witness.violation_index == 3
    assert len(verdict.witness.steps) == 21
    assert verdict.witness.violated == ("before DeviationUp normal: eventually "
                                        "[RequestHandler.deviation < 52] unsatisfied "
                                        "in preceding segment")


def _applications(monkeypatch) -> list:
    """Where check applies each operation, in order: in ``_Gate.decide``,
    ``_unfold`` or ``_fails``, the innermost of them that is running, or
    else in a walk; ``"window"`` marks where a gate-refused window was
    unfolded, so that the window walk's own applications show after it.
    The oracle applies through ``reconfig`` and is not counted."""
    places, named = [], {fn.__code__: name for name, fn in (
        ("decide", checker._Gate.decide), ("_unfold", checker._unfold),
        ("_fails", checker._fails))}

    def apply(op, c):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in named:
            frame = frame.f_back
        places.append("walk" if frame is None else named[frame.f_code])
        return apply_evolution(op, c)

    unfold = checker._unfold
    monkeypatch.setattr(checker, "apply_evolution", apply)
    monkeypatch.setattr(checker, "_unfold",
                        lambda *args: (unfold(*args), places.append("window"))[0])
    return places


@pytest.mark.parametrize("text, status, index", [
    ("eventually [RequestHandler.deviation = 55]", "holds", None),
    ("eventually [RequestHandler.deviation > 99]", "unknown", None),
    # an eventually leaf cannot fail on a prefix, nor an after above it
    ("after DeviationUp normal eventually [RequestHandler.deviation < 52]", "unknown", None),
    ("after DeviationUp normal always [RequestHandler.deviation < 55]", "fails", 5),
    ("before DeviationUp normal eventually [RequestHandler.deviation > 51]", "fails", 1),
])
def test_a_cut_window_is_judged_without_the_oracle(text, status, index, http_model, http_ops,
                                                   monkeypatch):
    # (DeviationUp)+ never repeats, so the 20-step window is cut by the budget
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle evaluator was called")

    monkeypatch.setattr(checker, "oracle_eval_detailed", refuse)
    monkeypatch.setattr(oracle, "_ev", refuse)
    places = _applications(monkeypatch)
    a = build_automaton(parse_path("(DeviationUp)+"))
    verdict = check(parse_formula(text), a, http_model, http_ops, CheckOptions(max_steps=20))
    # each of the 20 window positions is applied once: the walk takes the
    # run to the gate's refusal at P+2|C| = 2, the window takes the rest
    # and reads the first two off the run's records, and the window walk
    # and the witness apply nothing
    assert places == ["walk"] * 2 + ["_unfold"] * 18 + ["window"]
    assert verdict.status == status
    if status == "unknown":
        assert verdict.reason == REASON_BUDGET
        assert verdict.stats.transitions_applied == 20
        assert print_path(verdict.residual) == "(DeviationUp)+"
    if status == "fails":
        assert verdict.witness.violation_index == index
        assert len(verdict.witness.steps) == 21  # the whole window


@pytest.mark.parametrize("seed, max_steps, period_start, index, violated", [
    # (run Op0)+, after Op0 exceptional always [...]: the violation reported
    # is the first at or after the occurrence at 4, not the period's first
    (146, 5, 3, 4, "always [((bound(Core.cout, Core.cin) implies false) implies "
                   "(bound(C0.out1, C0.in1) and false))] violated"),
    (43, 10, 6, 9, "eventually [not Core.q < 22] never satisfied (cycle stabilized)"),
    # the walk finds the violation at 12, past the window's end: it is
    # reported at its position in the period
    (3844, 10, 7, 9, "before Op1 terminates: eventually [exists v0 in bindings "
                     "((present(v0) or component(Core)))] unsatisfied in preceding segment"),
])
def test_a_window_that_repeats_exactly_is_walked_as_a_lasso(seed, max_steps, period_start,
                                                           index, violated, monkeypatch):
    f, a, c0, ops = generators.gen_case(seed)
    assert check(f, a, c0, ops).reason == REASON_CYCLE
    window = checker._unfold(checker._Run(a, ops, c0), max_steps)
    assert (len(window.entries), window.period_start) == (max_steps, period_start)
    places = _applications(monkeypatch)
    verdict = check(f, a, c0, ops, CheckOptions(max_steps=max_steps, oracle_crosscheck=True))
    # the window walk applies nothing; the proof check takes the run past the window
    assert set(places[places.index("window") + 1:]) <= {"_fails"}
    assert verdict.status == "fails"
    assert (verdict.witness.violation_index, verdict.witness.violated) == (index, violated)
    assert len(verdict.witness.steps) == len(window.entries)


@pytest.mark.parametrize("text", [
    None,  # cacheconnected.ftpl
    "before DeleteFileServer normal always [component(FileServer1)]",
    "after AddFileServer normal eventually [not component(FileServer2)]",
    "after RemoveCacheHandler normal always [component(CacheHandler)]",
])
@pytest.mark.parametrize("max_steps", [None, 3])
def test_the_gated_walk_applies_each_transition_it_counts(text, max_steps, base_automaton,
                                                          cache_formula, http_recipes,
                                                          http_model, http_ops, monkeypatch):
    # once each, and only after charging the budget: a budget of 3 allows 3;
    # the gate takes the run on to P+2|C| itself
    places = _applications(monkeypatch)
    f = cache_formula if text is None else parse_formula(text, known_ops=http_recipes.names())
    verdict = check(f, base_automaton, http_model, http_ops, CheckOptions(max_steps=max_steps))
    assert verdict.reason != REASON_CYCLE
    assert 0 < places.count("walk") == verdict.stats.transitions_applied
    assert set(places) <= {"walk", "decide"}
    if max_steps is not None:
        assert places.count("walk") <= max_steps


@pytest.mark.parametrize("text", [
    "always [true]",
    None,  # cacheconnected.ftpl: the inner instance walks on from the first occurrence
    "after RemoveCacheHandler normal always [component(RequestHandler)]",
])
def test_the_gate_reads_the_run_a_top_instance_walks_past_its_decision(
        text, base_automaton, cache_formula, http_recipes, http_model, http_ops, monkeypatch):
    # the walk reaches P+2|C|, where the gate compares two of its configurations
    places = _applications(monkeypatch)
    f = cache_formula if text is None else parse_formula(text, known_ops=http_recipes.names())
    verdict = check(f, base_automaton, http_model, http_ops)
    a = base_automaton
    assert verdict.is_holds
    assert set(places) == {"walk"}
    assert len(places) == verdict.stats.transitions_applied >= 2 * a.n_states - a.back_target


def test_the_gate_alone_decides_as_the_cycle_applied_twice_at_its_entry():
    # the gate reads F(e) and F(F(e)) off the run from the initial state;
    # is_idempotent_sequence applies the prefix once and the cycle twice itself
    decided = Counter()
    for seed in range(3000):
        _f, a, c0, ops = generators.gen_case(seed)
        if not a.has_cycle:
            continue
        entry = apply_sequence([ops[label] for label in a.prefix_labels()], c0)
        cycle = [ops[label] for label in a.cycle_labels()]
        for erased, admits in enumerate(checker.gate_admits(a, ops, c0)):
            assert admits == is_idempotent_sequence(cycle, entry, ignore_params=erased), \
                (seed, erased)
            decided[erased, admits] += 1
    # both gates admit and refuse, 4,536 comparisons in all
    assert len(decided) == 4 and sum(decided.values()) > 4000, decided


def test_a_check_applies_its_walk_and_the_rest_of_the_gate(monkeypatch):
    # the walk applies each transition it takes, the gate the run's positions
    # from the walk's frontier to P+2|C|, once each, and a witness none
    frontiers = []
    decide = checker._Gate.decide

    def deciding(gate):
        if gate.admits is None:
            frontiers.append(len(gate.run.steps) - 1)
        return decide(gate)

    monkeypatch.setattr(checker._Gate, "decide", deciding)
    kinds = dict.fromkeys(("refused", "read", "rest"), 0)
    for seed in range(300):
        f, a, c0, ops = generators.gen_case(seed)
        twice_at = 2 * a.n_states - a.back_target if a.has_cycle else 0  # P+2|C|
        for max_steps in (None, 1, a.n_states):
            places = _applications(monkeypatch)
            frontiers.clear()
            try:
                verdict = check(f, a, c0, ops, CheckOptions(max_steps=max_steps))
            except CpEvalError:
                continue
            if verdict.reason == REASON_CYCLE:
                kinds["refused"] += 1
                assert len(places) <= twice_at
                assert verdict.stats == checker.CheckStats(0, 0, 0)
                continue
            if "window" in places:
                continue  # a gate-refused window
            rest = twice_at - frontiers[0] if frontiers else 0
            kinds["rest" if rest else "read"] += 1
            assert places.count("walk") == verdict.stats.transitions_applied
            assert places.count("decide") == rest <= twice_at
            assert "_fails" not in places
    assert min(kinds.values()) > 20, kinds


FINITE_PATH ="run RemoveCacheHandler AddCacheHandler AddFileServer DeleteFileServer"


@pytest.mark.parametrize("path, text, status", [
    pytest.param(path, text, status, id=f"{text}-{status}" + ("-finite" if path else ""))
    for path, text, status in [
        (None, None, "holds"),  # server.rp, cacheconnected.ftpl
        (None, "before DeleteFileServer normal always [component(FileServer1)]", "holds"),
        (None, "after AddFileServer normal eventually [not component(FileServer2)]", "holds"),
        (None, "after RemoveCacheHandler normal always [component(CacheHandler)]", "fails"),
        # an eventually or before instance that reaches a finite path's end
        (FINITE_PATH, "eventually [component(FileServer3)]", "fails"),
        (FINITE_PATH, "before run terminates always [component(FileServer1)]", "holds"),
        (FINITE_PATH, "after AddFileServer normal eventually [component(FileServer3)]", "fails"),
    ]
])
def test_the_walk_looks_up_one_successor_per_transition(path, text, status, base_automaton,
                                                        cache_formula, http_recipes,
                                                        http_model, http_ops, monkeypatch):
    # each instance's run looks up its next transition once, plus the lookup
    # that ends it; the gate's own applications past the walk's end look up
    # one each, and a witness reads the run's records
    lookups, instances = [], []
    succ, fresh = checker.PathAutomaton.succ, checker._fresh_marks
    monkeypatch.setattr(checker.PathAutomaton, "succ",
                        lambda a, q: lookups.append(q) or succ(a, q))
    monkeypatch.setattr(checker, "_fresh_marks", lambda a: instances.append(a) or fresh(a))
    places = _applications(monkeypatch)
    a = base_automaton if path is None else build_automaton(parse_path(path))
    f = cache_formula if text is None else parse_formula(text, known_ops=http_recipes.names())
    verdict = check(f, a, http_model, http_ops)
    stepped = places.count("decide")
    assert verdict.status == status
    assert instances
    assert set(places) <= {"walk", "decide"}
    assert len(lookups) <= verdict.stats.transitions_applied + len(instances) + stepped
    if not a.has_cycle:
        assert stepped == 0  # no gate


def test_every_exhausted_instance_unfolding_ends_settled(monkeypatch):
    # the repeat always comes before the marks stop an eventually or before
    # run: on gated lassos, and on the windows of gate-refused ones
    exhausted = {"gated": [], "window": []}
    kind = "gated"
    settled = checker._assert_settled

    def watched(run):
        exhausted[kind].append((run.period_start, run.complete))
        settled(run)

    monkeypatch.setattr(checker, "_assert_settled", watched)
    for seed in range(400):
        f, a, c0, ops = generators.gen_case(seed)
        try:
            kind = "gated"
            refused = check(f, a, c0, ops).reason == REASON_CYCLE
            kind = "window" if refused else "gated"
            for max_steps in range(1, 2 * a.n_states + 3):
                check(f, a, c0, ops, CheckOptions(max_steps=max_steps))
        except CpEvalError:
            continue
    for runs in exhausted.values():
        assert len(runs) > 100
        assert all(ps is not None or complete for ps, complete in runs)
    assert any(ps is not None for ps, _ in exhausted["window"])


FLIP_MODEL = "model M { component A { class X param p : int = 0 } }"
FLIP_OPS = "op Flip { set A.p := 1 - param(A.p) }"


@pytest.mark.parametrize("max_steps", [2**63, 10**23])
@pytest.mark.parametrize("text, index", [("always [A.p < 2]", None), ("always [A.p < 1]", 1)])
def test_a_budget_past_sys_maxsize_is_a_budget(max_steps, text, index):
    # the gate refuses p = 0, 1, 0, ...; the window repeats exactly after two steps
    a, c0 = build_automaton(parse_path("(Flip)+")), parse_model(FLIP_MODEL)
    ops, f = parse_recipes(FLIP_OPS).operation_table(), parse_formula(text)
    assert check(f, a, c0, ops).reason == REASON_CYCLE
    verdict = check(f, a, c0, ops, CheckOptions(max_steps=max_steps))
    assert verdict == check(f, a, c0, ops, CheckOptions(max_steps=10))
    assert verdict.status == ("holds" if index is None else "fails")
    if index is not None:
        assert verdict.witness.violation_index == index


def _assert_witness_is_the_replayed_run(verdict, a, c0, ops):
    """Each witness step names the state and the plain digest of the run's
    configuration at its position."""
    q, c = 0, c0
    for i, step in enumerate(verdict.witness.steps):
        if i:
            label, q = a.succ(q)
            c = apply_evolution(ops[label], c).result
            assert step.label == label
        assert (step.state, step.digest) == (q, model_digest(c))


@pytest.mark.parametrize("path, text, max_steps", [
    (Q1_VARIANT, "after AddCacheHandler normal always "
                 "[bound(CacheHandler.cache, RequestHandler.getCache)]", None),
    (Q1_VARIANT, "before AddFileServer normal always [component(CacheHandler)]", None),
    # windows of the bounded, gate-refused branch
    ("(DeviationUp)+", "always [RequestHandler.deviation < 100]", 55),
    *(("(DeviationUp)+", text, 8) for text, status in DRIFT_CASES if status == "fails"),
    # witnesses that revisit a configuration
    (SERVER_PATH, "before DeleteFileServer normal always [not component(FileServer2)]", None),
    (*CACHE_CYCLE, None),
])
def test_witness_digests_are_the_plain_digests(path, text, max_steps, http_model, http_ops):
    a = build_automaton(parse_path(path))
    verdict = check(parse_formula(text), a, http_model, http_ops,
                    CheckOptions(max_steps=max_steps))
    assert verdict.is_fails
    _assert_witness_is_the_replayed_run(verdict, a, http_model, http_ops)


@pytest.mark.parametrize("path, text, steps, distinct", [
    # `run` changes nothing at the start of samples/server.rp
    (SERVER_PATH, "before DeleteFileServer normal always [not component(FileServer2)]", 10, 9),
    (*CACHE_CYCLE, 4, 3),
])
def test_a_witness_digests_each_distinct_configuration_once(path, text, steps, distinct,
                                                            http_model, http_ops, monkeypatch):
    digested, plain = [], checker.model_digester

    def counting():
        digest = plain()
        return lambda m: digested.append(m) or digest(m)

    monkeypatch.setattr(checker, "model_digester", counting)
    verdict = check(parse_formula(text), build_automaton(parse_path(path)), http_model, http_ops)
    assert len(verdict.witness.steps) == steps
    assert len(digested) == len({s.digest for s in verdict.witness.steps}) == distinct


@pytest.mark.parametrize("text, steps", [
    ("always [not component(CacheHandler)]", 1),
    ("before DeleteFileServer normal always [not component(FileServer2)]", 10),
])
def test_a_witness_leaves_the_initial_model_no_index(text, steps, http_model, http_ops):
    # the check's run hands the initial model its index until a step changes
    # it: a later run from the model must find none held
    c0 = ComponentModel(http_model.name, http_model.components, http_model.bindings,
                        http_model.delegations)  # a model no run has handed an index
    verdict = check(parse_formula(text), build_automaton(parse_path(SERVER_PATH)), c0, http_ops)
    assert len(verdict.witness.steps) == steps and c0._index is None


@pytest.mark.parametrize("oracle_crosscheck", [False, True])
def test_a_witness_tells_apart_configurations_whose_hashes_collide(oracle_crosscheck):
    c0 = parse_model("model M { component A { class K param a : int = 1 param b : int = 2 } }")
    ops = parse_recipes("op P { set A.a := 2  set A.b := 1 }").operation_table()
    c1 = apply_evolution(ops["P"], c0).result
    # a component's hash leaves out which value has which name
    assert hash(c1) == hash(c0) and c1 != c0
    verdict = check(parse_formula("always [A.a < 2]"), build_automaton(parse_path("P")), c0, ops,
                    CheckOptions(oracle_crosscheck=oracle_crosscheck))
    digests = [s.digest for s in verdict.witness.steps]
    assert digests == [model_digest(c0), model_digest(c1)] and digests[0] != digests[1]


def test_witness_digests_on_generated_runs():
    rng = random.Random(808)
    gated = refused = 0
    for _ in range(300):
        model = generators.gen_model(rng)
        recipes = generators.gen_recipes(rng, model)
        ops = recipes.operation_table()
        a = build_automaton(generators.gen_path(rng, sorted(recipes.recipes)))
        f = generators.gen_formula(rng, model, sorted(recipes.recipes))
        for max_steps in (None, *range(1, 2 * a.n_states + 1)):
            try:
                verdict = check(f, a, model, ops, CheckOptions(max_steps=max_steps))
            except CpEvalError:
                break
            if max_steps is None:
                gate_refused = verdict.reason == REASON_CYCLE
            if verdict.is_fails:
                _assert_witness_is_the_replayed_run(verdict, a, model, ops)
                if gate_refused:
                    refused += 1
                else:
                    gated += 1
    assert gated > 100 and refused > 10


def test_bounded_check_budget_exhaustion_residual(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    f = parse_formula("always [RequestHandler.deviation < 100]")
    verdict = check(f, a, http_model, http_ops, CheckOptions(max_steps=10))
    assert verdict.is_unknown
    assert verdict.reason == REASON_BUDGET
    assert verdict.reached.components["RequestHandler"].params["deviation"].value == 60


def test_reset_cycle_holds(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationReset)+"))
    f = parse_formula("always [RequestHandler.deviation < 100]")
    assert check(f, a, http_model, http_ops).is_holds


def test_budget_exhaustion_on_idempotent_path_is_replayable(
        http_model, http_ops, base_automaton, cache_formula):
    verdict = check(cache_formula, base_automaton, http_model, http_ops,
                    CheckOptions(max_steps=4))
    assert verdict.is_unknown
    assert verdict.reason == REASON_BUDGET
    assert verdict.residual.prefix == ("run", "AddFileServer",
                                       "DurationValidityUp", "DeleteFileServer")
    assert verdict.residual.cycle == base_automaton.cycle_labels()
    # relaunching on the residual path from the reached model completes
    resumed = check(cache_formula, build_automaton(verdict.residual),
                    verdict.reached, http_ops)
    assert resumed.is_holds


def test_vacuous_after_on_finite_path(http_model, http_ops):
    a = build_automaton(parse_path("run MemorySizeUp run"))
    f = parse_formula("after AddCacheHandler normal always [false]")
    assert check(f, a, http_model, http_ops).is_holds


def test_vacuous_exceptional_modality(http_model, http_ops, base_automaton):
    # the add always succeeds on this path, so the exceptional event never fires
    f = parse_formula("after AddCacheHandler exceptional always [false]")
    verdict = check(f, base_automaton, http_model, http_ops)
    assert verdict.is_holds
    assert oracle_verdict(parse_formula("after AddCacheHandler exceptional always [false]"),
                          base_automaton, http_model, http_ops) is True


def test_after_dispatches_at_first_occurrence(http_model, http_ops, base_automaton):
    # the inner property is judged from the post-add configuration at state 3
    for inner in ("false", "not component(CacheHandler)"):
        f = parse_formula(f"after AddCacheHandler normal always [{inner}]")
        verdict = check(f, base_automaton, http_model, http_ops)
        assert verdict.is_fails
        w = verdict.witness
        assert w.violation_index == 3
        assert (w.steps[3].state, w.steps[3].label) == (3, "AddCacheHandler")


def test_check_always_started_mid_cycle(http_model, http_ops, base_automaton):
    # a mid-path start is a check of the residual path from the configuration there
    entry = apply_sequence([http_ops[l] for l in base_automaton.prefix_labels()],
                           http_model)
    a = build_automaton(residual_from(base_automaton, 3))
    assert check(Always(cache_connected()), a, entry, http_ops).is_holds
    verdict = check(Always(FalseAtom()), a, entry, http_ops)
    assert verdict.is_fails
    assert verdict.witness.violation_index == 0


def test_check_eventually_examples(http_model, http_ops, base_automaton):
    def verdict(cp):
        return check(Eventually(cp), base_automaton, http_model, http_ops).status

    assert verdict(cache_connected()) == "holds"  # true at the initial model already
    assert verdict(FalseAtom()) == "fails"
    assert verdict(ComponentPresent("FileServer2")) == "holds"


def test_check_before_examples(http_model, http_ops, base_automaton):
    def verdict(event, trace):
        return check(Before(event, trace), base_automaton, http_model, http_ops).status

    assert verdict(EventSpec("DeleteFileServer", "normal"),
                   Always(ComponentPresent("RequestHandler"))) == "holds"
    # the add always succeeds on this path: the event never occurs
    assert verdict(EventSpec("AddCacheHandler", "exceptional"),
                   Always(FalseAtom())) == "holds"
    # the segment before the AddCacheHandler event contains the configuration
    # where the cache handler has been removed
    assert verdict(EventSpec("AddCacheHandler", "normal"),
                   Always(cache_connected())) == "fails"


def test_before_verdicts_through_check(http_model, http_ops, base_automaton):
    f = parse_formula("before AddCacheHandler normal "
                      "always [bound(CacheHandler.cache, RequestHandler.getCache)]")
    verdict = check(f, base_automaton, http_model, http_ops)
    assert verdict.is_fails
    assert verdict.witness.steps[verdict.witness.violation_index].state == 2


def test_unknown_operation_raises(http_model, http_ops):
    a = build_automaton(parse_path("Mystery"))
    with pytest.raises(CheckError):
        check(parse_formula("always [true]"), a, http_model, http_ops)
    with pytest.raises(CheckError):
        check(parse_formula("after Mystery normal always [true]"),
              build_automaton(parse_path("run")), http_model, http_ops)


def test_invalid_initial_model_raises(http_ops):
    bad = ComponentModel("M", {"A": Component("B", "X")})
    a = build_automaton(parse_path("run"))
    with pytest.raises(AdlValidationError, match="^invalid model: component keyed 'A' "
                                                 "carries id 'B'$") as err:
        check(parse_formula("always [true]"), a, bad, http_ops)
    assert err.value.violations == ["component keyed 'A' carries id 'B'"]


def test_cp_resolution_error_propagates(http_model, http_ops):
    f = Always(parse_cp("Ghost.x < 1"))
    a = build_automaton(parse_path("run"))
    with pytest.raises(CpEvalError):
        check(f, a, http_model, http_ops)


@pytest.mark.parametrize("path, refused", [("(DeviationUp)+", True), ("(DeviationReset)+", False)])
def test_an_evaluation_error_stands_only_if_the_gate_admits(path, refused, http_model, http_ops):
    # the walk evaluates the property at position 0, before the gate decides at 2
    f = parse_formula("always [RequestHandler.deviation < 60 and started(Nope)]")
    a = build_automaton(parse_path(path))
    if not refused:
        with pytest.raises(CpEvalError, match="unknown component 'Nope'"):
            check(f, a, http_model, http_ops)
        return
    verdict = check(f, a, http_model, http_ops)
    assert (verdict.reason, verdict.stats) == (REASON_CYCLE, checker.CheckStats(0, 0, 0))
    # the window walk evaluates it again, and there it stands
    with pytest.raises(CpEvalError, match="unknown component 'Nope'"):
        check(f, a, http_model, http_ops, CheckOptions(max_steps=4))


def test_oracle_crosscheck_option(http_model, http_ops, base_automaton, cache_formula):
    verdict = check(cache_formula, base_automaton, http_model, http_ops,
                    CheckOptions(oracle_crosscheck=True))
    assert verdict.is_holds


def test_parameter_drift_is_never_gated_as_idempotent(samples_dir, tmp_path, capsys):
    # the property reads a parameter the cycle keeps raising, so only the
    # structural gate applies; erasing the drift would report "holds" for a
    # property that fails at step 50
    path = tmp_path / "deviation.rp"
    path.write_text("(DeviationUp)+")
    args = ["check", "--model", str(samples_dir / "http.arch"),
            "--ops", str(samples_dir / "http.ops"), "--path", str(path),
            "--formula", "always [RequestHandler.deviation < 100]"]
    assert run_cli(args) == 2
    out = capsys.readouterr().out
    assert "verdict: unknown" in out
    assert "reason: non-idempotent-cycle" in out
    # the option that forced the erased gate is gone
    assert run_cli(args + ["--ignore-params"]) == 3


def test_suffix_monotonicity_classification():
    cp = TrueAtom()
    e = EventSpec("A", "normal")
    assert is_suffix_monotone(Always(cp))
    assert not is_suffix_monotone(Eventually(cp))
    assert is_suffix_monotone(Before(e, Always(cp)))
    assert not is_suffix_monotone(Before(e, Eventually(cp)))
    assert is_suffix_monotone(After(e, Eventually(cp)))


# --- regression cases for the two-pass discipline --------------------------------
#
# These inputs pass the idempotence gate, yet a single marking pass (stop at
# the first revisited state) reports the wrong verdict.  They pin down why
# the implementation traverses the cycle twice.

def _core_model(p=0, q=0, state=STARTED):
    core = Component(id="Core", cls="CoreClass",
                     params={"p": Param("int", p), "q": Param("int", q)},
                     state=state)
    return ComponentModel(name="M", components={"Core": core})


def test_second_pass_catches_shifted_intermediates():
    # cycle [p:=1, p:=2, q:=5] is idempotent at (p=0, q=0), but the second
    # traversal visits (p=1, q=5), which the first traversal never sees
    recipes = parse_recipes("""
        op P1 { set Core.p := 1 }
        op P2 { set Core.p := 2 }
        op Q5 { set Core.q := 5 }
    """)
    ops = recipes.operation_table()
    a = build_automaton(parse_path("(P1 P2 Q5)+", known_ops=recipes.names()))
    f = parse_formula("always [not (Core.p = 1 and Core.q = 5)]")
    verdict = check(f, a, _core_model(), ops)
    assert verdict.is_fails
    assert oracle_verdict(f, a, _core_model(), ops) is False
    assert verdict.stats.max_instance_transitions <= 2 * a.n_states


def test_second_pass_catches_late_first_event():
    # stopping an already-stopped component is exceptional on the first
    # traversal; the normal variant of the event first fires on the second
    recipes = parse_recipes("""
        op StopC { stop Core }
        op StartC { start Core }
    """)
    ops = recipes.operation_table()
    a = build_automaton(parse_path("(StopC StartC)+", known_ops=recipes.names()))
    m = _core_model(state=STOPPED)
    f = parse_formula("after StopC normal always [false]")
    verdict = check(f, a, m, ops)
    assert verdict.is_fails
    assert oracle_verdict(f, a, m, ops) is False


def test_every_occurrence_checked_for_eventually_continuation():
    # the first RemX occurrence still sees the binding; a later occurrence,
    # after the unbind, does not — first-occurrence dispatch would miss it
    comps = {
        "A": Component(id="A", cls="Alpha", outputs={"o": "T1"}),
        "B": Component(id="B", cls="Beta", inputs={"i": "T1"}),
        "X": Component(id="X", cls="Gamma"),
    }
    m = ComponentModel(name="M", components=comps,
                       bindings=frozenset({Binding("A", "o", "B", "i")}))
    recipes = parse_recipes("""
        op RemX { remove component X }
        op AddX { add component X { class Gamma } }
        op UnbindAB { unbind A.o -> B.i }
    """)
    ops = recipes.operation_table()
    a = build_automaton(parse_path("RemX UnbindAB (AddX RemX)+",
                                   known_ops=recipes.names()))
    f = parse_formula("after RemX normal eventually [bound(A.o, B.i)]")
    verdict = check(f, a, m, ops)
    assert verdict.is_fails
    assert oracle_verdict(f, a, m, ops) is False


def test_nested_after_gets_fresh_marks():
    # the outer event only fires on the second traversal; the inner operator
    # must still walk the cycle with its own marks
    recipes = parse_recipes("""
        op StopC { stop Core }
        op StartC { start Core }
    """)
    ops = recipes.operation_table()
    a = build_automaton(parse_path("(StopC StartC)+", known_ops=recipes.names()))
    m = _core_model(state=STOPPED)
    f = parse_formula("after StopC normal after StartC normal always [false]")
    verdict = check(f, a, m, ops)
    assert verdict.is_fails
    assert oracle_verdict(f, a, m, ops) is False


def test_empty_path_checks_initial_configuration(http_model, http_ops):
    a = build_automaton(parse_path(""))
    assert check(Always(cache_connected()), a, http_model, http_ops).is_holds
    assert check(Eventually(FalseAtom()), a, http_model, http_ops).is_fails
    assert check(parse_formula("after run normal always [false]"), a,
                 http_model, http_ops).is_holds  # no transitions: vacuous


def _before_case(seed: int, nested: bool):
    rng = random.Random(seed)
    model = generators.gen_model(rng)
    ops = generators.gen_recipes(rng, model).operation_table()
    names = sorted(name for name in ops if name != "run")
    automaton = build_automaton(generators.gen_path(rng, names))

    def event():
        return EventSpec(rng.choice(names + ["run"]), rng.choice(generators.MODALITIES))

    f = Before(event(), generators.gen_trace(rng, model))
    if nested:
        f = After(event(), f)
    return f, automaton, model, ops


def _wrap(lasso, i: int) -> int:
    n = len(lasso.entries)
    return i if i < n else lasso.period_start + (i - lasso.period_start) % lasso.period


@settings(max_examples=400)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@example(seed=34, nested=False)  # its only occurrence is the wrap-around transition
def test_before_agrees_with_the_oracle_clause(seed, nested):
    """The checker's one-scan ``before`` against the oracle's ``Before``
    clause on the same unfolded window, in value, violation index and
    description.  About half the gated cycles are cut on parameter-erased
    models (the formula cannot observe parameters), some of them with
    parameter drift that only the erased gate admits."""
    f, a, c0, ops = _before_case(seed, nested)
    erased = a.has_cycle and erasure_invariant(f, ops)
    try:
        assume(not a.has_cycle or is_idempotent_sequence(
            [ops[label] for label in a.cycle_labels()],
            apply_sequence([ops[label] for label in a.prefix_labels()], c0),
            ignore_params=erased))
        verdict = check(f, a, c0, ops)
    except CpEvalError:
        assume(False)
    lasso = unfold_to_lasso(a, c0, ops, compare_erased=erased)
    value, info = oracle_eval_detailed(f, lasso)
    assert verdict.is_holds is value
    if not nested:
        assert verdict.stats.cp_evaluations <= len(lasso.entries)
    if value is False:
        index, description = info
        assert verdict.witness.violated == description
        if nested:
            # the inner window starts at the occurrence, so its index may lie
            # whole periods past the oracle's representative
            assert _wrap(lasso, verdict.witness.violation_index) == index
        else:
            assert verdict.witness.violation_index == index
            assert len(verdict.witness.steps) == len(lasso.entries)


def test_before_counts_occurrences_past_the_window():
    # the window is c0 -A-> c1 -B-> c2 and back to c0: the occurrence of A
    # that follows the violation at c2 exists only past the window's end
    c0 = parse_model("model M { component X { class K } component Y { class K state stopped } }")
    ops = parse_recipes("op A { start Y } op B { stop X } op C { start X stop Y }") \
        .operation_table()
    a = build_automaton(parse_path("(A B C)+"))
    verdict = check(parse_formula("before A normal always [started(X)]"), a, c0, ops,
                    CheckOptions(oracle_crosscheck=True))
    assert verdict.is_fails
    assert verdict.witness.violation_index == 2
    assert len(verdict.witness.steps) == 3
    assert verdict.stats.cp_evaluations == 3


@pytest.mark.parametrize("text", [
    "before AddCacheHandler normal always [bound(CacheHandler.cache, RequestHandler.getCache)]",
    "before DeleteFileServer normal always [component(RequestHandler)]",
    "before AddCacheHandler normal eventually [component(FileServer2)]",
    "before AddFileServer normal eventually [component(CacheHandler)]",
    "after RemoveCacheHandler normal before AddCacheHandler normal eventually [false]",
])
def test_check_judges_before_without_the_oracle_evaluator(
        text, http_model, http_ops, base_automaton, monkeypatch):
    import reconfcheck.oracle as oracle

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle evaluator was called")

    monkeypatch.setattr(checker, "oracle_eval_detailed", refuse)
    monkeypatch.setattr(oracle, "_ev", refuse)
    verdict = check(parse_formula(text), base_automaton, http_model, http_ops)
    assert verdict.status in ("holds", "fails")


_CORRUPTED_MARKS = """
from reconfcheck import build_automaton, check, parse_formula, parse_model, parse_path, \\
    parse_recipes
from reconfcheck import checker

class Forgetful(list):
    # a mark map that loses every mark of state 0
    def __setitem__(self, state, mark):
        if state != 0:
            super().__setitem__(state, mark)

fresh = checker._fresh_marks
a = build_automaton(parse_path("run run run"))
ops = parse_recipes("").operation_table()
c0 = parse_model("model M { component A { class X } }")
for name, text, corrupt in [
    ("always", "always [true]", lambda a: Forgetful(fresh(a))),
    ("after", "after run normal always [true]",
     lambda a: [checker._Mark.AGAIN] + fresh(a)[1:]),
    # marks that stop the run at once: the unfolding gets no repeat
    ("eventually", "eventually [false]", lambda a: [checker._Mark.CHECKED] * a.n_states),
]:
    checker._fresh_marks = corrupt
    try:
        check(parse_formula(text), a, c0, ops)
        print(name, "passed")
    except AssertionError as exc:
        print(name, "raised:", exc)
"""


def test_mark_order_invariants_hold_under_optimize():
    src = Path(checker.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPTED_MARKS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    invariant = ("mark-order invariant: an earlier state is unchecked, "
                 "or checked while this one is unchecked")
    assert proc.stdout.splitlines() == [f"always raised: {invariant}",
                                        f"after raised: {invariant}",
                                        f"eventually raised: {_UNSETTLED}"]


_INVARIANT = ("mark-order invariant: an earlier state is unchecked, "
              "or checked while this one is unchecked")
_UNSETTLED = "instance unfolding ended with neither a period nor a terminal state"


def _slice_run(walk, q, c, pos):
    """``checker._Walk.run`` testing the invariant against ``marks[:q]``
    on every step: the reference for the counted form (unbudgeted)."""
    assert walk.remaining is None
    a, taken = walk.a, 0
    marks = checker._fresh_marks(a)
    start = q
    while (nxt := a.succ(q)) is not None:
        mk = marks[q]
        if mk is checker._Mark.CHECKED:
            return
        earlier = marks[:q] if start == 0 else ()
        if checker._Mark.UNCHECKED in earlier \
                or mk is checker._Mark.UNCHECKED and checker._Mark.CHECKED in earlier:
            raise AssertionError(_INVARIANT)
        marks[q] = checker._Mark.AGAIN if mk is checker._Mark.UNCHECKED \
            else checker._Mark.CHECKED
        label, q = nxt
        pos += 1
        c = walk.reach(label, q, c, pos)
        if walk.gate is not None and pos == walk.gate.twice_at and not walk.gate.decide():
            raise checker._Refused()
        taken += 1
        walk.transitions += 1
        walk.max_instance = max(walk.max_instance, taken)
        if taken > 2 * a.n_states:
            raise AssertionError(f"operator instance applied {taken} transitions, "
                                 f"exceeding 2*|Q| = {2 * a.n_states}")
        yield label, q, c


def _corrupted_mark_lists(n):
    """Every list over the three marks, and fresh lists that drop the write
    at one index."""
    for marks in itertools.product(list(checker._Mark), repeat=n):
        yield lambda a, marks=marks: list(marks)

    class Forgetful(list):
        def __setitem__(self, state, mark):
            if state != self.lost:
                super().__setitem__(state, mark)

    for lost in range(n):
        def make(a, lost=lost):
            marks = Forgetful([checker._Mark.UNCHECKED] * a.n_states)
            marks.lost = lost
            return marks
        yield make


def test_counted_mark_order_invariant_matches_the_slice_form(monkeypatch):
    ops = parse_recipes("").operation_table()
    c0 = parse_model("model M { component A { class X } }")
    # eventually and before instances walk under marks too, so a mark map
    # that stops their run before its repeat breaks the termination obligation
    formulas = [parse_formula(t) for t in ("always [true]", "after run normal always [true]",
                                           "after run terminates always [true]",
                                           "eventually [false]",
                                           "before run normal always [true]")]
    counted = checker._Walk.run
    compared = raised = unsettled = 0
    for n_prefix, n_cycle in itertools.product(range(3), range(4)):
        if n_prefix == n_cycle == 0:
            continue
        text = " ".join(["run"] * n_prefix)
        if n_cycle:
            text += " (" + " ".join(["run"] * n_cycle) + ")+"
        a = build_automaton(parse_path(text))
        for fresh in _corrupted_mark_lists(a.n_states):
            monkeypatch.setattr(checker, "_fresh_marks", fresh)
            for f in formulas:
                outcomes = []
                for run in (counted, _slice_run):
                    monkeypatch.setattr(checker._Walk, "run", run)
                    try:
                        v = check(f, a, c0, ops)
                        outcomes.append((v.status, v.stats))
                    except AssertionError as exc:
                        outcomes.append(("raised", str(exc)))
                assert outcomes[0] == outcomes[1], (text, f, outcomes)
                compared += 1
                raised += outcomes[0] == ("raised", _INVARIANT)
                unsettled += outcomes[0] == ("raised", _UNSETTLED)
    assert compared == 2875
    assert raised > 0
    assert unsettled > 0


def test_mark_order_invariant_reads_each_mark_a_bounded_number_of_times(monkeypatch):
    class CountingMarks(list):
        reads = 0

        def __getitem__(self, key):
            CountingMarks.reads += len(range(*key.indices(len(self)))) \
                if isinstance(key, slice) else 1
            return super().__getitem__(key)

        def __iter__(self):
            CountingMarks.reads += len(self)
            return super().__iter__()

    monkeypatch.setattr(checker, "_fresh_marks",
                        lambda a: CountingMarks([checker._Mark.UNCHECKED] * a.n_states))
    n = 2000
    a = build_automaton(parse_path("(" + " ".join(["run"] * n) + ")+"))
    verdict = check(parse_formula("always [true]"), a,
                    parse_model("model M { component A { class X } }"),
                    parse_recipes("").operation_table())
    assert verdict.is_holds
    assert verdict.stats.transitions_applied == 2 * n
    assert 0 < CountingMarks.reads <= 5 * a.n_states


_DRIFT = "(DeviationUp)+"


@pytest.mark.parametrize("path, text, max_steps", [
    (None, "always [not component(FileServer2)]", None),
    (None, "after AddCacheHandler normal always [not component(FileServer2)]", None),
    (None, "before DeleteFileServer normal always [not component(FileServer2)]", None),
    (None, "before AddFileServer normal eventually [component(FileServer2)]", None),
    # the windows of test_a_cut_window_is_judged_without_the_oracle
    (_DRIFT, "after DeviationUp normal always [RequestHandler.deviation < 55]", 20),
    (_DRIFT, "before DeviationUp normal eventually [RequestHandler.deviation > 51]", 20),
])
def test_a_finitely_refuted_fails_is_proof_checked_without_the_oracle(
        path, text, max_steps, base_automaton, http_model, http_ops, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle_verdict was called")

    monkeypatch.setattr(checker, "oracle_verdict", refuse)
    checked = []
    flaw = checker.refutation_flaw
    monkeypatch.setattr(checker, "refutation_flaw",
                        lambda *args: checked.append(args) or flaw(*args))
    a = base_automaton if path is None else build_automaton(parse_path(path))
    f = parse_formula(text)
    verdict = check(f, a, http_model, http_ops,
                    CheckOptions(max_steps=max_steps, oracle_crosscheck=True))
    assert verdict.is_fails
    assert len(checked) == 1
    assert verdict == check(f, a, http_model, http_ops, CheckOptions(max_steps=max_steps))


@pytest.mark.parametrize("path, text, status, max_steps", [
    # no finite prefix refutes an eventually
    (None, "eventually [component(Nope)]", "fails", None),
    (None, "after AddFileServer normal eventually [component(Nope)]", "fails", None),
    (None, None, "holds", None),  # cacheconnected.ftpl
    (None, "always [component(RequestHandler)]", "holds", None),
    (None, "before DeleteFileServer normal always [component(FileServer1)]", "holds", None),
    (None, "after AddFileServer normal eventually [not component(FileServer2)]", "holds", None),
    (_DRIFT, "eventually [RequestHandler.deviation = 55]", "holds", 20),
])
def test_every_other_verdict_is_recomputed_by_the_oracle(path, text, status, max_steps,
                                                         base_automaton, cache_formula,
                                                         http_model, http_ops, monkeypatch):
    calls = []
    monkeypatch.setattr(checker, "oracle_verdict",
                        lambda *args: calls.append(args) or oracle_verdict(*args))
    monkeypatch.setattr(checker, "refutation_flaw", None)  # never called
    a = base_automaton if path is None else build_automaton(parse_path(path))
    f = cache_formula if text is None else parse_formula(text)
    verdict = check(f, a, http_model, http_ops,
                    CheckOptions(max_steps=max_steps, oracle_crosscheck=True))
    assert verdict.status == status
    assert len(calls) == 1


@pytest.mark.parametrize("path, text, max_steps", [
    (None, "always [not component(FileServer2)]", None),
    (None, "before DeleteFileServer normal always [not component(FileServer2)]", None),
    (_DRIFT, "always [RequestHandler.deviation < 55]", 20),  # a gate-refused window
    (*CACHE_CYCLE, None),  # a witness that revisits its configurations
])
def test_check_frees_what_it_built_without_the_cycle_collector(
        path, text, max_steps, base_automaton, http_model, http_ops, monkeypatch):
    # a violation's traceback holds the frames that raised it, and so every
    # configuration they hold: check must break that cycle itself
    built = []

    def keeping(apply):
        def apply_and_keep(op, m):
            outcome = apply(op, m)
            if outcome.result is not m:
                built.append(weakref.ref(outcome.result))
            return outcome
        return apply_and_keep

    monkeypatch.setattr(checker, "apply_evolution", keeping(checker.apply_evolution))
    monkeypatch.setattr(reconfig, "apply_evolution", keeping(reconfig.apply_evolution))
    a = base_automaton if path is None else build_automaton(parse_path(path))
    gc.disable()
    try:
        verdict = check(parse_formula(text), a, http_model, http_ops,
                        CheckOptions(max_steps=max_steps))
        assert verdict.is_fails and built
        del verdict
        assert sum(ref() is not None for ref in built) == 0
    finally:
        gc.enable()


# --- one run per check, recorded as changes -----------------------------------------

def _recorded_runs(monkeypatch) -> list:
    """The run of each check made from now on, as the check left it."""
    runs = []
    init = checker._Run.__init__

    def keeping(run, *args):
        init(run, *args)
        runs.append(run)

    monkeypatch.setattr(checker._Run, "__init__", keeping)
    return runs


@pytest.mark.parametrize("oracle_crosscheck", [False, True])
def test_a_check_applies_each_run_position_once(oracle_crosscheck, monkeypatch):
    # the run takes each position once, whoever asks for it; only a nested
    # instance that walks again positions the run holds applies them again.
    # A witness and its proof apply nothing, and a gate-refused window
    # takes only the positions past the run's frontier
    runs = _recorded_runs(monkeypatch)
    frontiers, unfold = [], checker._unfold
    monkeypatch.setattr(checker, "_unfold", lambda run, max_steps: (
        frontiers.append(len(run.steps) - 1), unfold(run, max_steps))[1])
    take = checker._Run._take.__code__
    named = {checker._fails.__code__: "_fails", unfold.__code__: "_unfold"}
    applied = []

    def apply(op, c):
        frame, place, took = sys._getframe(1), "walk", False
        while frame is not None and frame.f_code not in named:
            took = took or frame.f_code is take
            frame = frame.f_back
        applied.append((place if frame is None else named[frame.f_code], took))
        return apply_evolution(op, c)

    monkeypatch.setattr(checker, "apply_evolution", apply)  # the oracle applies through reconfig
    kinds = Counter()
    for seed in range(600):
        f, a, c0, ops = generators.gen_case(seed)
        for max_steps in (None, 2 * a.n_states):
            runs.clear(), applied.clear(), frontiers.clear()
            try:
                verdict = check(f, a, c0, ops, CheckOptions(max_steps, oracle_crosscheck))
            except CpEvalError:
                continue
            run, = runs
            places = [place for place, _took in applied]
            assert "_fails" not in places
            assert sum(took for _place, took in applied) == len(run.steps) - 1
            assert all(took or place == "walk" for place, took in applied)
            if frontiers:
                kinds["window"] += 1
                assert places.count("_unfold") == len(run.steps) - 1 - frontiers[0]
            kinds["fails" if verdict.is_fails else "other"] += 1
            kinds["walked again"] += not all(took for _place, took in applied)
    assert min(kinds.values()) > 20, kinds


def test_the_records_rebuild_the_run(monkeypatch):
    # on generated cases, gate-refused windows and nested afters among them:
    # the configurations rebuilt at any positions are run_path's, every
    # witness digest is the plain digest of one of them, and the digester
    # takes each distinct configuration of a witness once
    runs = _recorded_runs(monkeypatch)
    digested, plain = [], checker.model_digester

    def counting():
        digest = plain()
        return lambda m: digested.append(m) or digest(m)

    monkeypatch.setattr(checker, "model_digester", counting)
    rng = random.Random(37)
    kinds = Counter()
    for seed in range(600):
        f, a, c0, ops = generators.gen_case(seed)
        refused = None
        for max_steps in (None, 2 * a.n_states):
            runs.clear(), digested.clear()
            try:
                verdict = check(f, a, c0, ops, CheckOptions(max_steps=max_steps))
            except CpEvalError:
                break
            refused = verdict.reason == REASON_CYCLE if refused is None else refused
            run, = runs
            n = len(run.steps)
            expected = [("", 0, c0), *itertools.islice(reconfig.run_path(a, ops, 0, c0), n - 1)]
            assert [step[:2] for step in run.steps] == [e[:2] for e in expected]
            positions = sorted(rng.sample(range(n), rng.randint(1, n)))
            assert list(run.configurations(positions)) == [(p, expected[p][2]) for p in positions]
            if verdict.is_fails:
                shown = [expected[i][2] for i in range(len(verdict.witness.steps))]
                assert [s.digest for s in verdict.witness.steps] == list(map(model_digest, shown))
                distinct = []
                for c in shown:
                    if c not in distinct:  # found with ==
                        distinct.append(c)
                assert len(digested) == len(distinct)
                kinds["window" if refused else "gated"] += 1
                kinds["repeats"] += len(distinct) < len(shown)
            kinds["nested after"] += isinstance(f, After) and isinstance(f.inner, After)
    assert min(kinds.values()) > 20, kinds


@pytest.mark.parametrize("model_text, ops_text, path, components_collide", [
    # the one binding is cut and made again: only it differs between positions
    ("model M { component A { class K output o : T } component B { class K input i : T } "
     "bind A.o -> B.i }", "op Cut { unbind A.o -> B.i } op Make { bind A.o -> B.i }",
     "Cut Make Cut Make", True),
    # a's value toggles: only it differs
    ("model M { component A { class K param a : int = 1 param b : int = 7 } }",
     "op T { set A.a := 3 - param(A.a) }", "T T T T", False),
    # a's and b's values swap, and a component's hash leaves out which value has which name
    ("model M { component A { class K param a : int = 1 param b : int = 2 } }",
     "op T { set A.a := param(A.b)  set A.b := 3 - param(A.a) }", "T T T T", True),
])
@pytest.mark.parametrize("oracle_crosscheck", [False, True])
def test_positions_alike_but_for_one_value_or_binding_never_share_a_digest(
        model_text, ops_text, path, components_collide, oracle_crosscheck, monkeypatch):
    digested, plain = [], checker.model_digester

    def counting():
        digest = plain()
        return lambda m: digested.append(m) or digest(m)

    monkeypatch.setattr(checker, "model_digester", counting)
    c0, ops = parse_model(model_text), parse_recipes(ops_text).operation_table()
    a = build_automaton(parse_path(path))
    verdict = check(parse_formula("eventually [false]"), a, c0, ops,
                    CheckOptions(oracle_crosscheck=oracle_crosscheck))
    c1 = apply_evolution(ops[a.labels[0]], c0).result
    assert c1 != c0
    assert (component_sum(c1) == component_sum(c0)) == components_collide
    first, second = model_digest(c0), model_digest(c1)
    assert first != second
    # the positions alternate between two configurations, each digested once
    assert [s.digest for s in verdict.witness.steps] == [first, second] * 2 + [first]
    assert len(digested) == 2


def test_a_long_witness_composes_each_step_a_bounded_number_of_times(monkeypatch):
    # a's value toggles, so every configuration past the second repeats:
    # each is compared with its latest position, two steps back, never
    # with the first
    c0 = parse_model("model M { component A { class K param a : int = 1 } }")
    ops = parse_recipes("op T { set A.a := 3 - param(A.a) }").operation_table()
    a = build_automaton(parse_path("(" + " ".join(["T"] * 60) + ")+"))
    composed, plain = [], checker.composed

    def counting(logs):
        logs = list(logs)
        composed.append(len(logs))
        return plain(logs)

    monkeypatch.setattr(checker, "composed", counting)
    verdict = check(parse_formula("eventually [false]"), a, c0, ops)
    n = len(verdict.witness.steps)
    first, second = model_digest(c0), model_digest(apply_evolution(ops["T"], c0).result)
    assert n >= 60 and [s.digest for s in verdict.witness.steps] == [first, second] * (n // 2) \
        + [first] * (n % 2)
    assert sum(composed) <= 4 * n, (n, sum(composed))


def test_the_run_takes_a_step_only_from_its_newest_model(http_model, http_ops):
    c0 = ComponentModel(http_model.name, http_model.components, http_model.bindings,
                        http_model.delegations)  # a model no run has handed an index
    run = checker._Run(build_automaton(parse_path("(RemoveCacheHandler AddCacheHandler)+")),
                       http_ops, c0)
    c1 = run.reach("RemoveCacheHandler", 1, c0, 1)
    assert len(run.steps) == 2 and run.newest is c1
    # a model unlike the run's at its frontier is applied to, and nothing is recorded
    other = apply_evolution(http_ops["DeviationUp"], c1).result
    assert other != c1
    assert run.reach("AddCacheHandler", 0, other, 2) == \
        apply_evolution(http_ops["AddCacheHandler"], other).result
    assert len(run.steps) == 2 and run.newest is c1
    # a position the run holds, walked again: applied, and nothing is recorded
    again = run.reach("RemoveCacheHandler", 1, c0, 1)
    assert again == c1 and again is not c1 and len(run.steps) == 2 and run.newest is c1
    # an equal model the run did not build: the run takes the step from its own
    twin = ComponentModel(c1.name, dict(c1.components), c1.bindings, c1.delegations)
    c2 = run.reach("AddCacheHandler", 0, twin, 2)
    assert len(run.steps) == 3 and run.newest is c2
    assert list(run.configurations(range(3))) == [(0, c0), (1, c1), (2, c2)]
