"""The oracle's quantifiers whose bodies it keeps per record: the same value
or the same error as ``model.eval_cp``, a body evaluated once per record of
an unfolding, and an oracle that does not lean on the checker's argument
that a body depends on a component's class alone."""

import ast
import copy
import importlib.util
import random
import sys
from itertools import islice
from pathlib import Path

import pytest

from reconfcheck import CheckOptions, build_automaton, check, eval_cp, model, oracle, \
    parse_formula, parse_model, parse_path, parse_recipes, run_path
from reconfcheck.checker import OracleDisagreement
from reconfcheck.model import And, ComponentModel, CpEvalError, Exists, ForAll, Implies, Not, \
    Or, ParamCmp, Started, TrueAtom, VarClassIs, VarPresent

import generators

ROOT = Path(__file__).resolve().parents[1]


def _outcome(evaluate, cp, m):
    try:
        return True, evaluate(cp, m)
    except CpEvalError as e:
        return False, str(e)


# bodies that read the model other than through their variable, or may raise
_FALLBACKS = (
    ForAll("x", "bindings", VarClassIs("x", "Alpha")),
    Exists("x", "bindings", Or(VarPresent("x"), VarClassIs("x", "Alpha"))),
    ForAll("x", "components", VarPresent("y")),
    Exists("x", "components", Or(VarClassIs("x", "Alpha"), Started("Nope"))),
    ForAll("x", "components", Implies(VarPresent("x"), ParamCmp("Core", "p", "<", 12))),
    ForAll("x", "components", Exists("y", "components",
                                     Or(VarClassIs("y", "Beta"), Not(VarClassIs("x", "Alpha"))))),
    Exists("x", "components", ForAll("x", "components", VarClassIs("x", "Alpha"))),
    ForAll("v", "ports", TrueAtom()),
)

# bodies read only through their variable, alone and under connectives
_KEPT = (
    ForAll("x", "components", Or(VarClassIs("x", "Alpha"), Not(VarClassIs("x", "Beta")))),
    Exists("x", "components", VarClassIs("x", "CoreClass")),
    Exists("x", "bindings", VarPresent("x")),
    And(ForAll("x", "bindings", Not(Not(VarPresent("x")))),
        Exists("x", "components", Implies(VarClassIs("x", "FileStore"), VarPresent("x")))),
)


def _copied(m: ComponentModel) -> ComponentModel:
    """``m`` with every component and binding an equal but distinct object."""
    return ComponentModel(m.name, {cid: copy.copy(c) for cid, c in m.components.items()},
                          frozenset(copy.copy(b) for b in m.bindings), m.delegations)


def _properties(f, rng, m) -> list:
    cps = [*_FALLBACKS, *_KEPT]
    cps += [generators.gen_cp(rng, m, depth=3) for _ in range(6)]
    cps += [generators.gen_ill_formed_cp(rng, m) for _ in range(3)]
    while not hasattr(f, "cp"):
        f = getattr(f, "inner", None) or f.trace
    return cps + [f.cp]


@pytest.mark.parametrize("copied", [False, True])
def test_kept_values_equal_the_tree_walk_on_consecutive_configurations(copied):
    visited = hits = 0
    for seed in range(150):
        f, a, c0, ops = generators.gen_case(seed)
        rng = random.Random(seed)
        cps = _properties(f, rng, c0)
        memo = oracle._Memo()
        run = [c0] + [c for _label, _q, c in islice(run_path(a, ops, 0, c0), 12)]
        for m in run:
            if copied:
                m = _copied(m)
            for cp in cps:
                before = len(memo.records)
                assert _outcome(lambda cp, m: oracle._evaluate(cp, m, memo), cp, m) == \
                    _outcome(eval_cp, cp, m), (seed, cp)
                if type(cp) in (ForAll, Exists) and memo.bodies[id(cp)][1] is not None:
                    domain = m.components if cp.domain == "components" else m.bindings
                    visited += len(domain)
                    hits += len(domain) - (len(memo.records) - before)
        # a body that may raise or reads the model otherwise is never kept
        assert all(memo.bodies.get(id(cp), (cp, None))[1] is None for cp in _FALLBACKS)
        assert all(memo.bodies[id(q)][1] is not None
                   for q in (*_KEPT[:3], _KEPT[3].left, _KEPT[3].right))
    if copied:
        assert hits == 0 and visited > 0
    else:
        assert hits > 0.5 * visited


def _scaled(monkeypatch):
    """perfbench's generator of scaled lassos, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_scaled",
                                                  ROOT / "perfbench" / "scaled.py")
    scaled = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, scaled)  # its dataclasses look it up
    spec.loader.exec_module(scaled)
    return scaled


def test_an_oracle_pass_evaluates_a_body_once_per_record(monkeypatch):
    scaled = _scaled(monkeypatch)
    lasso = scaled.make_lasso(random.Random(1), "holds", 200, 10, bump=True)
    (case,) = [c for c in scaled.holds_cases(lasso) if c.shape == "always-forall"]
    f = parse_formula(case.formula)
    c0 = parse_model(lasso.arch)
    ops = parse_recipes(lasso.ops).operation_table()
    a = build_automaton(parse_path(lasso.rp))
    plain = check(f, a, c0, ops)

    body, calls, models = f.cp.body, [0], {}
    evaluate, windows = oracle.eval_cp, oracle._windows

    def counted(cp, m, *env):
        calls[0] += cp is body
        return evaluate(cp, m, *env)

    def recorded(*args):
        for lasso in windows(*args):
            models.update((id(step.model), step.model) for step in lasso.entries)
            yield lasso

    monkeypatch.setattr(oracle, "eval_cp", counted)
    monkeypatch.setattr(oracle, "_windows", recorded)
    crosschecked = check(f, a, c0, ops, CheckOptions(oracle_crosscheck=True))
    assert crosschecked == plain and crosschecked.stats == plain.stats and plain.is_holds
    records = {id(c) for m in models.values() for c in m.components.values()}
    assert 200 <= calls[0] <= len(records) < 2 * 200 < 200 * len(models)


@pytest.mark.parametrize("text", [
    "always [forall x in components (not class(x) = Handler)]",
    "eventually [exists x in components (class(x) = Handler)]",
])
def test_a_checker_quantifier_that_stops_after_the_first_class_is_caught(
        monkeypatch, http_model, http_ops, base_automaton, text):
    f = parse_formula(text)
    opts = CheckOptions(oracle_crosscheck=True)
    check(f, base_automaton, http_model, http_ops, opts)
    least_ids = model._least_ids
    monkeypatch.setattr(model, "_least_ids", lambda m: least_ids(m)[:1])
    with pytest.raises(OracleDisagreement):
        check(f, base_automaton, http_model, http_ops, opts)


def test_the_oracle_reads_nothing_of_the_checker_quantifier():
    tree = ast.parse((ROOT / "src" / "reconfcheck" / "oracle.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names.isdisjoint({"compile_cp", "_compile_quantifier", "_least_ids"})
