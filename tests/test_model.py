import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from reconfcheck import (
    Binding,
    Component,
    ComponentModel,
    CpEvalError,
    Param,
    RemoveComponent,
    SetParam,
    STOPPED,
    apply_primitive,
    erase_param_values,
    eval_cp,
    validate_model,
)
from reconfcheck.model import (
    And,
    Bound,
    ComponentPresent,
    Exists,
    FalseAtom,
    ForAll,
    Implies,
    Not,
    Or,
    ParamCmp,
    Started,
    Subcomponent,
    TrueAtom,
    VarClassIs,
    VarPresent,
    compile_cp,
)
from reconfcheck.reconfig import BinOp, Bind, IntLiteral, ParamRef, Unbind, \
    is_idempotent_sequence

import generators


def two_component_model(port_cls_b="T1"):
    a = Component(id="A", cls="Alpha", outputs={"out": "T1"})
    b = Component(id="B", cls="Beta", inputs={"in1": port_cls_b})
    return ComponentModel(
        name="M", components={"A": a, "B": b},
        bindings=frozenset({Binding("A", "out", "B", "in1")}))


def test_validate_http_model_clean(http_model):
    assert validate_model(http_model) == []


def test_validate_full_architecture_has_seven_components(http_model, http_ops):
    from reconfcheck import apply_evolution
    full = apply_evolution(http_ops["AddFileServer"], http_model).result
    assert len(full.components) == 7
    assert validate_model(full) == []


def test_composite_with_params_is_violation():
    comp = Component(id="Top", cls="Server", params={"x": Param("int", 1)},
                     contains=frozenset({"Leaf"}))
    leaf = Component(id="Leaf", cls="Alpha")
    m = ComponentModel(name="M", components={"Top": comp, "Leaf": leaf})
    violations = validate_model(m)
    assert len(violations) == 1
    assert "parameters" in violations[0]
    assert "Top" in violations[0]


def test_binding_class_mismatch_is_violation():
    m = two_component_model(port_cls_b="T2")
    violations = validate_model(m)
    assert len(violations) == 1
    assert "classes" in violations[0]


def test_validate_flags_duplicate_input_endpoint():
    a = Component(id="A", cls="Alpha", outputs={"o1": "T1", "o2": "T1"})
    b = Component(id="B", cls="Beta", inputs={"in1": "T1"})
    m = ComponentModel(name="M", components={"A": a, "B": b},
                       bindings=frozenset({Binding("A", "o1", "B", "in1"),
                                           Binding("A", "o2", "B", "in1")}))
    assert any("bound more than once" in v for v in validate_model(m))


def test_validate_flags_containment_cycle_and_double_parent():
    a = Component(id="A", cls="Alpha", contains=frozenset({"B"}))
    b = Component(id="B", cls="Beta", contains=frozenset({"A"}))
    m = ComponentModel(name="M", components={"A": a, "B": b})
    assert any("cycle" in v for v in validate_model(m))

    p1 = Component(id="P1", cls="Alpha", contains=frozenset({"K"}))
    p2 = Component(id="P2", cls="Alpha", contains=frozenset({"K"}))
    k = Component(id="K", cls="Beta")
    m2 = ComponentModel(name="M", components={"P1": p1, "P2": p2, "K": k})
    assert any("contained by both" in v for v in validate_model(m2))


def test_model_equal_reflexive(http_model):
    assert http_model == http_model
    # equality is structural: the order of components does not matter
    reordered = dict(reversed(list(http_model.components.items())))
    assert replace(http_model, components=reordered) == http_model


def test_model_equal_after_removing_absent_component(http_model):
    outcome = apply_primitive(RemoveComponent("NotThere"), http_model)
    assert http_model == outcome.result
    assert not outcome.changed


def test_model_equal_distinguishes_param_update(http_model):
    outcome = apply_primitive(
        SetParam("RequestHandler", "deviation", IntLiteral(51)), http_model)
    assert outcome.changed
    assert http_model != outcome.result


def test_model_equal_is_equivalence_relation():
    rng = random.Random(7)
    models = [generators.gen_model(rng) for _ in range(30)]
    for m in models:
        assert m == m
    for a in models[:10]:
        for b in models[:10]:
            assert (a == b) == (b == a)
            if a == b:
                for c in models[:10]:
                    if b == c:
                        assert a == c


def test_erase_param_values_keeps_classes(http_model):
    erased = erase_param_values(http_model)
    handler = erased.components["RequestHandler"]
    assert handler.params["deviation"] == Param("int", None)
    assert http_model != erased


def test_erasure_shares_components_without_parameters(http_model):
    erased = erase_param_values(http_model)
    for cid, c in http_model.components.items():
        assert (erased.components[cid] is c) is (not c.params)
    assert erased.components["RequestHandler"] is not \
        http_model.components["RequestHandler"]


def test_erased_gate_passes_drift_and_refuses_topological_change():
    core = Component(id="Core", cls="K", params={"p": Param("int", 0)},
                     outputs={"out": "T1"})
    a = Component(id="A", cls="Alpha", outputs={"out": "T1"})
    b = Component(id="B", cls="Beta", inputs={"in1": "T1"})
    old = Binding("A", "out", "B", "in1")
    m = ComponentModel(name="M", components={"Core": core, "A": a, "B": b},
                       bindings=frozenset({old}))
    bump = SetParam("Core", "p", BinOp("+", ParamRef("Core", "p"), IntLiteral(1)))
    assert not is_idempotent_sequence([bump], m)
    assert is_idempotent_sequence([bump], m, ignore_params=True)
    # the bind is refused while B.in1 is taken and succeeds on the second
    # application, after the unbind freed it: the topology keeps changing
    rebind = [Bind(Binding("Core", "out", "B", "in1")), Unbind(old), bump]
    assert not is_idempotent_sequence(rebind, m, ignore_params=True)


def cache_connected():
    return Bound("CacheHandler", "cache", "RequestHandler", "getCache")


def test_cache_connected_on_initial_model(http_model):
    assert eval_cp(cache_connected(), http_model) is True


def test_true_atom_everywhere(http_model):
    assert eval_cp(TrueAtom(), http_model) is True
    assert eval_cp(FalseAtom(), http_model) is False


def test_cache_connected_false_after_remove(http_model, http_ops):
    from reconfcheck import apply_evolution
    removed = apply_evolution(http_ops["RemoveCacheHandler"], http_model).result
    assert "CacheHandler" not in removed.components
    assert eval_cp(cache_connected(), removed) is False
    assert eval_cp(ComponentPresent("CacheHandler"), removed) is False


def test_membership_atoms_false_on_absent(http_model):
    assert eval_cp(ComponentPresent("Ghost"), http_model) is False
    assert eval_cp(Bound("Ghost", "a", "Ghost2", "b"), http_model) is False
    assert eval_cp(Subcomponent("Ghost", "HttpServer"), http_model) is False
    assert eval_cp(Subcomponent("CacheHandler", "Ghost"), http_model) is False


def test_attribute_atoms_error_on_unknown(http_model):
    with pytest.raises(CpEvalError):
        eval_cp(Started("Ghost"), http_model)
    with pytest.raises(CpEvalError):
        eval_cp(ParamCmp("Ghost", "x", "<", 1), http_model)
    with pytest.raises(CpEvalError):
        eval_cp(ParamCmp("CacheHandler", "nope", "<", 1), http_model)


def test_param_cmp_sorting_errors(http_model):
    # string literal against an int parameter
    with pytest.raises(CpEvalError):
        eval_cp(ParamCmp("RequestHandler", "deviation", "=", "fifty"), http_model)
    # ordering comparison needs ints; build a model with a string param
    c = Component(id="A", cls="Alpha", params={"s": Param("string", "hi")})
    m = ComponentModel(name="M", components={"A": c})
    assert eval_cp(ParamCmp("A", "s", "=", "hi"), m) is True
    with pytest.raises(CpEvalError):
        eval_cp(ParamCmp("A", "s", "<", "zz"), m)


def test_param_cmp_relops(http_model):
    for relop, expected in [("<", True), ("<=", True), ("=", False),
                            ("!=", True), (">=", False), (">", False)]:
        assert eval_cp(ParamCmp("RequestHandler", "deviation", relop, 60),
                       http_model) is expected


def test_connectives(http_model):
    cc = cache_connected()
    assert eval_cp(Not(cc), http_model) is False
    assert eval_cp(And(cc, TrueAtom()), http_model) is True
    assert eval_cp(Or(FalseAtom(), cc), http_model) is True
    assert eval_cp(Implies(cc, FalseAtom()), http_model) is False
    assert eval_cp(Implies(FalseAtom(), cc), http_model) is True


def test_started_atom(http_model):
    assert eval_cp(Started("CacheHandler"), http_model) is True
    stopped = http_model.components["CacheHandler"]
    import dataclasses
    m2 = ComponentModel(
        name=http_model.name,
        components={**http_model.components,
                    "CacheHandler": dataclasses.replace(stopped, state=STOPPED)},
        bindings=http_model.bindings, delegations=http_model.delegations)
    assert eval_cp(Started("CacheHandler"), m2) is False


def test_quantifiers_match_enumeration():
    rng = random.Random(13)
    for _ in range(50):
        m = generators.gen_model(rng, max_extra=4)
        for domain in ("components", "bindings"):
            body = VarClassIs("v", "Alpha") if domain == "components" else VarPresent("v")
            if domain == "components":
                expected_all = all(c.cls == "Alpha" for c in m.components.values())
                expected_any = any(c.cls == "Alpha" for c in m.components.values())
            else:
                expected_all = True  # every binding of the model is present
                expected_any = bool(m.bindings)
            assert eval_cp(ForAll("v", domain, body), m) is expected_all
            assert eval_cp(Exists("v", domain, body), m) is expected_any


def test_negation_duality_on_random_properties():
    rng = random.Random(99)
    for _ in range(100):
        m = generators.gen_model(rng)
        cp = generators.gen_cp(rng, m)
        try:
            value = eval_cp(cp, m)
        except CpEvalError:
            continue
        assert eval_cp(Not(cp), m) is (not value)


def test_quantifier_unbound_variable_errors(http_model):
    with pytest.raises(CpEvalError):
        eval_cp(VarPresent("free"), http_model)
    with pytest.raises(CpEvalError):
        eval_cp(ForAll("v", "bindings", VarClassIs("v", "Alpha")), http_model)


def test_validation_closure_under_random_operations():
    rng = random.Random(4242)
    for _ in range(60):
        m = generators.gen_model(rng)
        recipes = generators.gen_recipes(rng, m)
        ops = recipes.operation_table()
        current = m
        for _ in range(8):
            name = rng.choice(list(ops))
            from reconfcheck import apply_evolution
            current = apply_evolution(ops[name], current).result
            assert validate_model(current) == []


def _outcome(evaluate):
    try:
        value = evaluate()
    except CpEvalError as exc:
        return "error", str(exc)
    return type(value), value


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_properties_agree_with_eval_cp(seed):
    rng = random.Random(seed)
    m = generators.gen_model(rng)
    props = [
        generators.gen_cp(rng, m, depth=3),
        ForAll("w", "components", Or(VarClassIs("w", "Alpha"), generators.gen_cp(rng, m))),
        Exists("w", "bindings", And(VarPresent("w"), generators.gen_cp(rng, m))),
        generators.gen_ill_formed_cp(rng, m),
    ]
    for cp in props:
        assert _outcome(lambda: compile_cp(cp)(m, {})) == _outcome(lambda: eval_cp(cp, m))


def test_compiled_properties_raise_like_eval_cp(http_model):
    ghost_env = {"x": ("component", "Ghost")}
    cases = [
        (VarClassIs("x", "Alpha"), ghost_env),
        (VarClassIs("x", "Alpha"), {"x": ("binding", None)}),
        (And(TrueAtom(), "not a property node"), {}),
    ]
    for cp, env in cases:
        expected = _outcome(lambda: eval_cp(cp, http_model, env))
        assert expected[0] == "error"
        assert _outcome(lambda: compile_cp(cp)(http_model, env)) == expected
