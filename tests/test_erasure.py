"""Erasing parameter values is sound only when no event can observe them.

An event is normal or exceptional by whether its operation changed the
configuration.  A recipe that removes a component and adds it again from a
template with parameters can change nothing but a parameter value, so a
formula with an event on it is not erasure-invariant.
"""

import random

import pytest

from reconfcheck import (
    AddComponent,
    After,
    Before,
    BinOp,
    Component,
    ComponentModel,
    CpEvalError,
    EventSpec,
    IntLiteral,
    Param,
    ParamRef,
    PathExpr,
    RemoveComponent,
    STARTED,
    STOPPED,
    SetParam,
    build_automaton,
    check,
    oracle_eval,
    oracle_verdict,
    unfold_to_lasso,
    validate_model,
)
from reconfcheck.adl import RecipeSet
from reconfcheck.checker import CheckOptions
from reconfcheck.cli import run_cli

import generators

SWAP_ARCH = """model M {
  component X { class C param p : int = 0 state stopped }
  component Z { class D param q : int = 0 }
}
"""
SWAP_OPS = """op BumpZ { set Z.q := param(Z.q) + 1 }
op BumpX { set X.p := param(X.p) + 1 }
op Swap { remove component X add component X { class C param p : int = 0 } }
"""


# each Swap resets X.p, which BumpX has just raised, and changes nothing else:
# every Swap is normal, none exceptional; within 12 steps the literal
# semantics can refute a normal Swap's formula but not confirm the others
@pytest.mark.parametrize("formula, bounded", [
    ("before Swap normal always [false]", 1),
    ("before Swap exceptional always [false]", 2),
    ("after Swap exceptional always [false]", 2),
    ("after Swap normal always [false]", 1),
])
def test_a_recipe_that_only_resets_a_parameter_is_observed(tmp_path, capsys, formula,
                                                           bounded):
    for name, text in (("m.arch", SWAP_ARCH), ("m.ops", SWAP_OPS),
                       ("m.rp", "(BumpZ BumpX Swap)+\n")):
        (tmp_path / name).write_text(text)
    args = ["check", "--model", str(tmp_path / "m.arch"), "--ops", str(tmp_path / "m.ops"),
            "--path", str(tmp_path / "m.rp"), "--formula", formula]
    assert run_cli(args) == 2
    assert "reason: non-idempotent-cycle" in capsys.readouterr().out
    assert run_cli(args + ["--max-steps", "12", "--oracle"]) == bounded


def _reset_case(rng: random.Random):
    """A generated lasso whose cycle bumps ``Y.r`` and runs ``Reset``, a
    recipe that removes ``Y`` and adds it again from a template with ``r``."""
    base = generators.gen_model(rng)
    y = Component("Y", "FileStore", params={"r": Param("int", rng.randint(0, 2))},
                  state=rng.choice((STARTED, STOPPED)))
    c0 = ComponentModel(base.name, {**base.components, "Y": y}, base.bindings)
    assert validate_model(c0) == []
    recipes = dict(generators.gen_recipes(rng, c0).recipes)
    template = Component("Y", "FileStore", params={"r": Param("int", rng.randint(0, 2))})
    reset = [RemoveComponent("Y"), AddComponent(template)]
    for _ in range(rng.randint(0, 2)):
        reset.insert(rng.randint(0, len(reset)), generators._gen_step(rng, c0))
    recipes["Reset"] = tuple(reset)
    recipes["BumpY"] = (SetParam("Y", "r", rng.choice((
        BinOp("+", ParamRef("Y", "r"), IntLiteral(1)), IntLiteral(rng.randint(0, 2))))),)
    names = sorted(recipes)
    path = generators.gen_path(rng, names)
    cycle = list(path.cycle or ()) + ["BumpY", "Reset"]
    rng.shuffle(cycle)
    a = build_automaton(PathExpr(path.prefix, tuple(cycle)))
    if rng.random() < 0.6:
        event = EventSpec("Reset", rng.choice(generators.MODALITIES))
        trace = generators.gen_trace(rng, c0)
        f = Before(event, trace) if rng.random() < 0.5 else After(event, trace)
    else:
        f = generators.gen_formula(rng, c0, names)
    return f, a, c0, RecipeSet(recipes).operation_table()


def test_verdicts_on_reset_lassos_agree_with_the_oracle_and_the_exact_pass():
    rng = random.Random(2024)
    decided = 0
    for _ in range(300):
        f, a, c0, ops = _reset_case(rng)
        try:
            verdicts = [check(f, a, c0, ops),
                        check(f, a, c0, ops, CheckOptions(max_steps=2 * a.n_states))]
            references = [oracle_verdict(f, a, c0, ops),
                          oracle_eval(f, unfold_to_lasso(a, c0, ops, compare_erased=False))]
        except CpEvalError:
            continue
        for verdict in verdicts:
            if verdict.is_unknown:
                continue
            for reference in references:
                if reference is not None:
                    decided += 1
                    assert verdict.is_holds is reference, (f, a, c0)
    assert decided > 100
