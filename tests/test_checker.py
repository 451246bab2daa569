import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reconfcheck import (
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
    apply_sequence,
    build_automaton,
    check,
    check_after,
    check_always,
    check_before,
    check_eventually,
    erasure_invariant,
    is_idempotent_sequence,
    is_suffix_monotone,
    model_equal,
    oracle_verdict,
    parse_cp,
    parse_formula,
    parse_model,
    parse_path,
    parse_recipes,
    print_path,
    unfold_to_lasso,
)
from reconfcheck import checker
from reconfcheck.checker import CheckError, CheckOptions, REASON_BUDGET, REASON_CYCLE, \
    cycle_entry_model
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
    assert model_equal(verdict.reached, http_model)


def test_bounded_check_finds_deviation_violation(http_model, http_ops):
    a = build_automaton(parse_path("(DeviationUp)+"))
    f = parse_formula("always [RequestHandler.deviation < 100]")
    verdict = check(f, a, http_model, http_ops, CheckOptions(max_steps=55))
    assert verdict.is_fails
    assert verdict.witness.violation_index == 50  # deviation reaches 100 there


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
    seen = []

    def probe(q, c):
        seen.append((q, "CacheHandler" in c.components))
        return True

    assert check_after(EventSpec("AddCacheHandler", "normal"), probe,
                       base_automaton, http_ops, 0, http_model) is True
    assert seen == [(3, True)]  # fired once, at the post-add state


def test_check_always_started_mid_cycle(http_model, http_ops, base_automaton):
    entry = apply_sequence([http_ops[l] for l in base_automaton.prefix_labels()],
                           http_model)
    assert check_always(cache_connected(), base_automaton, http_ops, 3, entry) is True
    assert check_always(FalseAtom(), base_automaton, http_ops, 3, entry) is False


def test_check_eventually_examples(http_model, http_ops, base_automaton):
    assert check_eventually(cache_connected(), base_automaton, http_ops,
                            http_model) is True  # true at the initial model already
    assert check_eventually(FalseAtom(), base_automaton, http_ops, http_model) is False
    assert check_eventually(ComponentPresent("FileServer2"), base_automaton,
                            http_ops, http_model) is True


def test_check_before_examples(http_model, http_ops, base_automaton):
    assert check_before(EventSpec("DeleteFileServer", "normal"),
                        Always(ComponentPresent("RequestHandler")),
                        base_automaton, http_ops, http_model) is True
    assert check_before(EventSpec("NeverUsed", "normal"), Always(FalseAtom()),
                        base_automaton, http_ops, http_model) is True  # vacuous
    # the segment before the AddCacheHandler event contains the configuration
    # where the cache handler has been removed
    assert check_before(EventSpec("AddCacheHandler", "normal"),
                        Always(cache_connected()),
                        base_automaton, http_ops, http_model) is False


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


def test_cp_resolution_error_propagates(http_model, http_ops):
    f = Always(parse_cp("Ghost.x < 1"))
    a = build_automaton(parse_path("run"))
    with pytest.raises(CpEvalError):
        check(f, a, http_model, http_ops)


def test_oracle_crosscheck_option(http_model, http_ops, base_automaton, cache_formula):
    verdict = check(cache_formula, base_automaton, http_model, http_ops,
                    CheckOptions(oracle_crosscheck=True))
    assert verdict.is_holds


def test_ignore_params_override(http_model, http_ops, base_automaton):
    # reads a growing parameter: the structural gate rejects the cycle
    f = parse_formula("after AddCacheHandler normal "
                      "always [CacheHandler.memorySize >= 100]")
    assert check(f, base_automaton, http_model, http_ops).is_unknown
    # forcing erased idempotence lets the walk conclude (values only grow)
    verdict = check(f, base_automaton, http_model, http_ops,
                    CheckOptions(ignore_params=True))
    assert verdict.is_holds


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
from reconfcheck import Mark, build_automaton, fresh_marks, parse_model, parse_path, \\
    parse_recipes
from reconfcheck.checker import check_after, check_always
from reconfcheck.ftpl import EventSpec
from reconfcheck.model import TrueAtom

class Forgetful(dict):
    # a marks map that loses every mark of state 0
    def __setitem__(self, state, mark):
        if state != 0:
            super().__setitem__(state, mark)

a = build_automaton(parse_path("run run run"))
ops = parse_recipes("").operation_table()
c0 = parse_model("model M { component A { class X } }")
for name, call in [
    ("always", lambda: check_always(TrueAtom(), a, ops, 0, c0, Forgetful(fresh_marks(a)))),
    ("after", lambda: check_after(EventSpec("run", "normal"), lambda q, c: True, a, ops,
                                  0, c0, {**fresh_marks(a), 0: Mark.AGAIN})),
]:
    try:
        call()
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
    assert proc.stdout.splitlines() == [
        "always raised: always invariant: all earlier states marked again or checked",
        "after raised: first-pass invariant: all earlier states marked again",
    ]
