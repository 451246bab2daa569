import itertools
import os
import random
import subprocess
import sys
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
from reconfcheck.checker import CheckError, CheckOptions, REASON_BUDGET, REASON_CYCLE, \
    cycle_entry_model
from reconfcheck.cli import run_cli
from reconfcheck.ftpl import After, Before
from reconfcheck.model import Bound, ComponentPresent, FalseAtom, TrueAtom
from reconfcheck.oracle import oracle_eval_detailed

import generators

Q1_VARIANT = ("run (RemoveCacheHandler AddCacheHandler MemorySizeUp run "
              "AddFileServer DurationValidityUp DeleteFileServer)+")
QP1_VARIANT = ("run RemoveCacheHandler (AddCacheHandler MemorySizeUp run "
               "AddFileServer DurationValidityUp DeleteFileServer)+")


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
    # the walk reads the window's models: each window transition is applied once, by _unfold
    monkeypatch.setattr(checker, "apply_evolution", refuse)
    applied = []
    monkeypatch.setattr(reconfig, "apply_evolution",
                        lambda op, c: applied.append(op) or apply_evolution(op, c))
    a = build_automaton(parse_path("(DeviationUp)+"))
    verdict = check(parse_formula(text), a, http_model, http_ops, CheckOptions(max_steps=20))
    assert len(applied) == 2 + 20  # the gate's two laps, then the window
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
    def refuse(*args, **kwargs):
        raise AssertionError("the window walk applied an operation")

    monkeypatch.setattr(checker, "apply_evolution", refuse)
    f, a, c0, ops = generators.gen_case(seed)
    assert check(f, a, c0, ops).reason == REASON_CYCLE
    window = checker._unfold(a, c0, ops, max_steps)
    assert (len(window.entries), window.period_start) == (max_steps, period_start)
    verdict = check(f, a, c0, ops, CheckOptions(max_steps=max_steps, oracle_crosscheck=True))
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
    # once each, and only after charging the budget: a budget of 3 allows 3
    applied = []
    monkeypatch.setattr(checker, "apply_evolution",
                        lambda op, c: applied.append(op) or apply_evolution(op, c))
    f = cache_formula if text is None else parse_formula(text, known_ops=http_recipes.names())
    verdict = check(f, base_automaton, http_model, http_ops, CheckOptions(max_steps=max_steps))
    assert verdict.reason != REASON_CYCLE
    assert 0 < len(applied) == verdict.stats.transitions_applied
    if max_steps is not None:
        assert len(applied) <= max_steps


@pytest.mark.parametrize("text, status", [
    (None, "holds"),  # cacheconnected.ftpl
    ("before DeleteFileServer normal always [component(FileServer1)]", "holds"),
    ("after AddFileServer normal eventually [not component(FileServer2)]", "holds"),
    ("after RemoveCacheHandler normal always [component(CacheHandler)]", "fails"),
])
def test_the_walk_looks_up_one_successor_per_transition(text, status, base_automaton,
                                                        cache_formula, http_recipes,
                                                        http_model, http_ops, monkeypatch):
    # each instance's run looks up its next transition once, plus the lookup
    # that ends it; a failing check replays its witness on top
    lookups, instances = [], []
    succ, fresh = checker.PathAutomaton.succ, checker._fresh_marks
    monkeypatch.setattr(checker.PathAutomaton, "succ",
                        lambda a, q: lookups.append(q) or succ(a, q))
    monkeypatch.setattr(checker, "_fresh_marks", lambda a: instances.append(a) or fresh(a))
    f = cache_formula if text is None else parse_formula(text, known_ops=http_recipes.names())
    verdict = check(f, base_automaton, http_model, http_ops)
    replayed = len(verdict.witness.steps) - 1 if verdict.is_fails else 0
    assert verdict.status == status
    assert instances
    assert len(lookups) <= verdict.stats.transitions_applied + len(instances) + replayed


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
])
def test_witness_digests_are_the_plain_digests(path, text, max_steps, http_model, http_ops):
    a = build_automaton(parse_path(path))
    verdict = check(parse_formula(text), a, http_model, http_ops,
                    CheckOptions(max_steps=max_steps))
    assert verdict.is_fails
    _assert_witness_is_the_replayed_run(verdict, a, http_model, http_ops)


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
            [ops[label] for label in a.cycle_labels()], cycle_entry_model(a, c0, ops),
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


def _slice_run(walk, q, c):
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
        c = walk.reach(label, q, c)
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
