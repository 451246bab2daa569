import random
import time
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from reconfcheck import (
    AddComponent,
    Binding,
    Component,
    ComponentModel,
    CpEvalError,
    Delegation,
    Param,
    RemoveComponent,
    SetParam,
    STARTED,
    STOPPED,
    apply_primitive,
    erase_param_values,
    eval_cp,
    parse_model,
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
from reconfcheck import model
from reconfcheck.reconfig import BinOp, Bind, IntLiteral, ParamRef, Stop, Unbind, \
    apply_evolution, is_idempotent_sequence

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


def test_each_pair_of_name_kinds_lists_its_clashes_sorted():
    c = Component(id="C", cls="K",
                  params={"z": Param("int", 1), "b": Param("int", 2), "a": Param("int", 3)},
                  inputs={"b": "T", "i": "T", "a": "T"}, outputs={"i": "T", "z": "T", "a": "T"})
    assert validate_model(ComponentModel(name="M", components={"C": c})) == [
        "component 'C' reuses param/input names ['a', 'b']",
        "component 'C' reuses param/output names ['a', 'z']",
        "component 'C' reuses input/output names ['a', 'i']",
    ]


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
    assert validate_model(m) == ["subcomponent cycle through 'A'",
                                 "subcomponent cycle through 'B'"]

    p1 = Component(id="P1", cls="Alpha", contains=frozenset({"K"}))
    p2 = Component(id="P2", cls="Alpha", contains=frozenset({"K"}))
    k = Component(id="K", cls="Beta")
    m2 = ComponentModel(name="M", components={"P1": p1, "P2": p2, "K": k})
    assert any("contained by both" in v for v in validate_model(m2))


def _nested(*contains: tuple[str, tuple[str, ...]]) -> ComponentModel:
    """A model of components of one class, each containing the ids given."""
    return ComponentModel(name="M", components={
        cid: Component(id=cid, cls="K", contains=frozenset(kids)) for cid, kids in contains})


def test_a_cycle_is_reported_once_per_component_that_reaches_it():
    # A -> B -> C -> A is a cycle of containment, D hangs from A and E from
    # D; R -> S is a well-formed chain.  Each component whose parent chain
    # reaches the cycle gets one message, naming the first component its
    # chain meets twice: the cycle's entry, or itself on the cycle
    m = _nested(("E", ()), ("D", ("E",)), ("R", ("S",)), ("A", ("B", "D")), ("B", ("C",)),
                ("C", ("A",)), ("S", ()))
    assert validate_model(m) == ["subcomponent cycle through 'A'",
                                 "subcomponent cycle through 'A'",
                                 "subcomponent cycle through 'A'",
                                 "subcomponent cycle through 'B'",
                                 "subcomponent cycle through 'C'"]


def test_a_deep_containment_chain_validates_in_linear_time():
    # each parent chain is walked once: 16,000 levels take about 0.05 s on
    # a 2-core x86-64 machine (Python 3.11), and walking every chain from
    # scratch took 15.8 s there
    n = 16_000
    ids = [f"C{i:05d}" for i in range(n)]
    m = _nested(*((cid, ids[i + 1:i + 2]) for i, cid in enumerate(ids)))
    start = time.perf_counter()
    assert validate_model(m) == []
    assert time.perf_counter() - start < 1.0


def test_a_containment_ring_validates_in_linear_time():
    # every component is on the cycle and gets its own message; each parent
    # chain is walked only up to a component walked before, and a ring of
    # 4,000 took 1.6 s on a 2-core x86-64 machine (Python 3.11) when every
    # chain was walked round the ring
    n = 16_000
    ids = [f"C{i:05d}" for i in range(n)]
    m = _nested(*((cid, (ids[(i + 1) % n],)) for i, cid in enumerate(ids)))
    start = time.perf_counter()
    errs = validate_model(m)
    assert time.perf_counter() - start < 1.0
    assert errs == [f"subcomponent cycle through '{cid}'" for cid in ids]


def test_components_read_from_one_ill_typed_body_each_get_their_message():
    m = parse_model("model M { component A { class K param p : int = 1 input p : T } "
                    "component B { class K param p : int = 1 input p : T } "
                    "component C { class K param p : int = 1 input p : T } }")
    a, b, c = m.components.values()
    assert a.params is b.params is c.params and a.inputs is b.inputs is c.inputs
    assert validate_model(m) == [
        "component 'A' reuses param/input names ['p']",
        "component 'B' reuses param/input names ['p']",
        "component 'C' reuses param/input names ['p']",
    ]


def test_a_component_sharing_a_composites_fields_does_not_pass_for_it():
    params = {"x": Param("int", 1)}
    inputs: dict[str, str] = {}
    outputs = {"o": "T"}
    plain = Component("Plain", "K", params, inputs, outputs)
    top = Component("Top", "K", params, inputs, outputs, contains=frozenset({"Leaf"}))
    leaf = Component("Leaf", "L")
    m = ComponentModel(name="M", components={"Plain": plain, "Top": top, "Leaf": leaf})
    assert validate_model(m) == ["composite 'Top' has parameters"]


def _delegating(delegation, composite_ports=None, inner_ports=None, contained=True):
    """A composite P and a component C, P containing C if ``contained``, with
    one delegation; each ports dict is (inputs, outputs)."""
    p_in, p_out = composite_ports or ({"i": "T"}, {})
    c_in, c_out = inner_ports or ({"i": "T"}, {})
    p = Component("P", "K", {}, p_in, p_out, frozenset({"C"} if contained else ()))
    c = Component("C", "K", {}, c_in, c_out)
    return ComponentModel("M", {"P": p, "C": c}, delegations=frozenset({delegation}))


_ONE_RULE_EACH = [
    (ComponentModel("M", {"A": Component("A", "K", state="paused")}),
     ["component 'A' has unknown lifecycle state 'paused'"]),
    (ComponentModel("M", {"A": Component("A", "K", contains=frozenset({"Z"}))}),
     ["component 'A' contains unknown component 'Z'"]),
    (ComponentModel("M", {"B": Component("B", "K", inputs={"i": "T"})},
                    frozenset({Binding("X", "o", "B", "i")})),
     ["binding from unknown component 'X'"]),
    (ComponentModel("M", {"A": Component("A", "K", outputs={"o": "T"})},
                    frozenset({Binding("A", "o", "Y", "i")})),
     ["binding to unknown component 'Y'"]),
    (_delegating(Delegation("P", "i", "Z", "i")),
     ["delegation P.i -> Z.i names unknown components"]),
    (_delegating(Delegation("P", "i", "C", "i"), contained=False),
     ["delegation target 'C' is not a subcomponent of 'P'"]),
    (_delegating(Delegation("P", "x", "C", "i")),
     ["delegation source port 'x' missing on 'P'"]),
    (_delegating(Delegation("P", "i", "C", "y")),
     ["delegation inner port 'y' missing on 'C'"]),
    (_delegating(Delegation("P", "i", "C", "o"), inner_ports=({}, {"o": "T"})),
     ["delegation P.i -> C.o mixes port directions"]),
    (_delegating(Delegation("P", "i", "C", "i"), inner_ports=({"i": "U"}, {})),
     ["delegation P.i -> C.i couples ports of different classes"]),
]


@pytest.mark.parametrize("m, messages", _ONE_RULE_EACH,
                         ids=[messages[0] for _m, messages in _ONE_RULE_EACH])
def test_each_validation_rule_gives_its_own_message(m, messages):
    assert validate_model(m) == messages


def test_a_parameter_comparison_on_an_erased_model_has_no_value():
    m = erase_param_values(ComponentModel("M", {"A": Component("A", "K", {"p": Param("int", 1)})}))
    cp = ParamCmp("A", "p", "=", 1)
    for evaluate in (lambda: eval_cp(cp, m), lambda: compile_cp(cp)(m, {})):
        with pytest.raises(CpEvalError, match=r"^parameter 'A\.p' has no value$"):
            evaluate()


_SHARED_NAMES = ["a", "b", "c", "d", "e", "f"]
_SHARED_PARAMS = [Param("int", 1), Param("bool", True), Param("string", None),
                  Param("int", "one"), Param("float", 1.0)]


def _model_sharing_field_objects(rng: random.Random) -> ComponentModel:
    """Components whose params, inputs and outputs are each drawn from a few
    shared objects, so that many share all three (as components read from
    one body do) or some (as after an operation sets a parameter).  Fields
    may reuse a name, hold a value of the wrong class or of an unknown
    class, and composites may have parameters, so both well-typed and
    ill-typed models come up."""
    def names(most):
        return rng.sample(_SHARED_NAMES, rng.randint(0, most))

    def pool(make):
        return [make() for _ in range(rng.randint(1, 3))]

    params = pool(lambda: {n: rng.choice(_SHARED_PARAMS) if rng.random() < 0.3
                           else Param("int", 0) for n in names(2)})
    inputs = pool(lambda: {n: "T" for n in names(2)})
    outputs = pool(lambda: {n: "T" for n in names(2)})
    ids = [f"C{i}" for i in range(rng.randint(1, 8))]
    components = {}
    for cid in ids:
        children = frozenset(rng.sample(ids, rng.randint(0, min(2, len(ids))))) \
            if rng.random() < 0.3 else frozenset()
        components[cid] = Component(cid, "K", rng.choice(params), rng.choice(inputs),
                                    rng.choice(outputs), children,
                                    rng.choice([STARTED, STOPPED]))
    return ComponentModel(name="M", components=components)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_validate_model_on_shared_field_objects_agrees_with_a_per_component_check(seed):
    m = _model_sharing_field_objects(random.Random(seed))
    # the same model with every component owning copies of its fields
    own = ComponentModel(name=m.name, components={
        cid: Component(cid, c.cls, dict(c.params), dict(c.inputs), dict(c.outputs),
                       c.contains, c.state)
        for cid, c in m.components.items()})
    typing = [e for cid, c in m.components.items()
              for e in model.component_type_errors(cid, c)]
    got = validate_model(m)
    assert got == validate_model(own)
    # ids, states and children are well-formed, so the typing messages come
    # first, in the order of the components
    assert got[:len(typing)] == typing


def test_model_equal_reflexive(http_model):
    assert http_model == http_model
    # equality is structural: the order of components does not matter
    reordered = dict(reversed(list(http_model.components.items())))
    assert ComponentModel(http_model.name, reordered, http_model.bindings,
                          http_model.delegations) == http_model


def test_model_equal_after_removing_absent_component(http_model):
    out = apply_primitive(RemoveComponent("NotThere"), http_model)
    assert out is http_model
    assert http_model == out


def test_model_equal_distinguishes_param_update(http_model):
    out = apply_primitive(SetParam("RequestHandler", "deviation", IntLiteral(51)), http_model)
    assert http_model != out


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
    m2 = ComponentModel(
        name=http_model.name,
        components={**http_model.components, "CacheHandler": stopped.evolve(state=STOPPED)},
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


def _generated_properties(rng: random.Random, m: ComponentModel) -> list:
    """Properties drawn by the generators for ``m``, ill-formed and nested
    quantifiers over both domains among them."""
    props = [
        generators.gen_cp(rng, m, depth=3),
        ForAll("w", "components", Or(VarClassIs("w", "Alpha"), generators.gen_cp(rng, m))),
        Exists("w", "bindings", And(VarPresent("w"), generators.gen_cp(rng, m))),
        generators.gen_ill_formed_cp(rng, m),
    ]
    for domain in ("components", "bindings"):
        ctor = rng.choice((ForAll, Exists))
        props += [
            ctor("x", domain, _gen_local_body(rng, "x")),
            # a body that reads only x inside one that reads more, shadowing x
            ForAll("x", domain, Or(Exists("x", rng.choice(("components", "bindings")),
                                          _gen_local_body(rng, "x")),
                                   _gen_local_body(rng, "x"))),
            # an inner body that reads the outer variable
            ctor("x", domain, Exists("y", "components",
                                     And(VarPresent("y"), _gen_local_body(rng, "x")))),
        ]
    return props


def _order_sensitive_properties(rng: random.Random, m: ComponentModel) -> list:
    """Quantifiers whose body holds on one class, fails on another and reaches
    a leaf that may raise on the rest: which comes first, the value or the
    error, is decided by the order of the classes' least ids."""
    yes, no = rng.sample(generators.COMPONENT_CLASSES + ("CoreClass",), 2)
    bad = rng.choice((Started("Ghost"), ParamCmp("Core", "p", "=", "red"), VarPresent("free"),
                      VarClassIs("free", "Alpha"), ForAll("v", "ports", TrueAtom()),
                      generators.gen_ill_formed_cp(rng, m)))
    forall_body = Or(VarClassIs("x", yes), And(Not(VarClassIs("x", no)), bad))
    exists_body = And(Not(VarClassIs("x", no)), Or(VarClassIs("x", yes), bad))
    return [
        ForAll("x", "components", forall_body),
        Exists("x", "components", exists_body),
        # the inner quantifier's body reads the outer variable
        ForAll("x", "components", Exists("y", "components", Or(VarClassIs("y", yes), exists_body))),
        Exists("y", "components", ForAll("x", "components", And(VarClassIs("y", no), forall_body))),
    ]


def _many_per_class_models(rng: random.Random, m: ComponentModel):
    """``m`` with 6 to 20 more components of its classes, whose ids sort
    before, among and after its own, so the order of the classes' least ids
    varies from draw to draw; then a run from it whose each step removes the
    least id of some class, so the index the run holds keeps its ``classes``
    part up to date as least ids leave."""
    classes = generators.COMPONENT_CLASSES + ("CoreClass",)
    comps = dict(m.components)
    for i in range(rng.randint(6, 20)):
        cid = rng.choice(("B", "Ca", "Co", "Cz", "D")) + str(i)
        comps[cid] = Component(id=cid, cls=rng.choice(classes),
                               state=rng.choice((STARTED, STOPPED)))
    current = ComponentModel(m.name, comps, m.bindings, m.delegations)
    yield current
    current = apply_primitive(AddComponent(Component(id="A0", cls=rng.choice(classes))), current)
    for _ in range(4):
        yield current
        current = apply_primitive(RemoveComponent(min(current.components)), current)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_properties_agree_with_eval_cp(seed):
    rng = random.Random(seed)
    m = generators.gen_model(rng)
    props = _generated_properties(rng, m) + _order_sensitive_properties(rng, m)
    # the generators' free variable, bound by the caller
    envs = [{}, {"free": ("component", "Core")}, {"free": ("component", "Ghost")}]
    compiled = [compile_cp(cp) for cp in props]
    # compiled leaves are eval_cp's own clauses, so the reference evaluator
    # checks the compiled path independently of them; the run's models are
    # drawn one at a time, so each is evaluated while it holds the run's index
    for current in chain((m, ComponentModel(name="E")), _many_per_class_models(rng, m)):
        for cp, fn in zip(props, compiled):
            for env in envs:
                outcome = _outcome(lambda: fn(current, env))
                assert outcome == _outcome(lambda: eval_cp(cp, current, env))
                assert outcome == _outcome(lambda: _reference_eval_cp(cp, current, env))


def _gen_local_body(rng: random.Random, var: str, depth: int = 3):
    """A body that reads only ``var``: class and presence atoms, constants
    and connectives."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice((TrueAtom(), FalseAtom(), VarPresent(var),
                           VarClassIs(var, rng.choice(generators.COMPONENT_CLASSES
                                                      + ("CoreClass",)))))
    if rng.random() < 0.25:
        return Not(_gen_local_body(rng, var, depth - 1))
    ctor = rng.choice((And, Or, Implies))
    return ctor(_gen_local_body(rng, var, depth - 1), _gen_local_body(rng, var, depth - 1))


@pytest.mark.parametrize("cp, value", [
    (ForAll("x", "bindings", VarClassIs("x", "Alpha")), "error"),
    (Exists("x", "bindings", Not(VarClassIs("x", "Alpha"))), "error"),
    (ForAll("x", "bindings", Or(VarPresent("x"), VarClassIs("x", "Alpha"))), True),
    (Exists("x", "bindings", And(FalseAtom(), VarClassIs("x", "Alpha"))), False),
    (ForAll("x", "components", Or(VarPresent("x"), VarClassIs("x", "Alpha"))), True),
    (ForAll("x", "components", VarClassIs("x", "Alpha")), False),
    (Exists("x", "components", VarClassIs("x", "Beta")), True),
    (Exists("x", "components", Implies(VarPresent("x"), VarClassIs("x", "Ghost"))), False),
])
def test_local_quantifiers_agree_with_eval_cp(cp, value):
    m = two_component_model()
    outcome = _outcome(lambda: compile_cp(cp)(m, {}))
    assert outcome == _outcome(lambda: eval_cp(cp, m))
    assert (outcome[0] if value == "error" else outcome[1]) == value
    # over an empty domain the body is never evaluated: no error, vacuous value
    vacuous = isinstance(cp, ForAll)
    for empty in (ComponentModel(name="E"),
                  ComponentModel(m.name, m.components, delegations=m.delegations)):
        if cp.domain == "components" and empty.components:
            continue
        assert compile_cp(cp)(empty, {}) is vacuous is eval_cp(cp, empty)


def test_one_compiled_property_along_a_run_of_shared_models():
    # one closure along a run: each model after the first reads the least id
    # of each class off the index its run keeps up to date
    rng = random.Random(8080)
    checked = 0
    for _ in range(40):
        m = generators.gen_model(rng)
        ops = list(generators.gen_recipes(rng, m).operation_table().values())
        # an id that comes back with another class, and one component swapped for another
        ops += [RemoveComponent("X0"), RemoveComponent("C0"),
                *(AddComponent(Component(id=cid, cls=cls))
                  for cid in ("X0", "C0") for cls in generators.COMPONENT_CLASSES)]
        props = [ctor("x", domain, _gen_local_body(rng, "x"))
                 for ctor in (ForAll, Exists) for domain in ("components", "bindings")]
        compiled = [compile_cp(cp) for cp in props]
        current = m
        for _ in range(12):
            for cp, fn in zip(props, compiled):
                assert _outcome(lambda: fn(current, {})) == _outcome(lambda: eval_cp(cp, current))
                checked += 1
            current = apply_evolution(rng.choice(ops), current).result
    assert checked == 40 * 12 * 4


def _count_class_reads(monkeypatch, var: str, cls: str) -> list:
    """The environments ``class(var) = cls`` is read under, from now on."""
    evaluations = []
    clause = model._CLAUSES[VarClassIs]

    def counting(cp, m, env):
        if (cp.var, cp.cls) == (var, cls):
            evaluations.append(env[var])
        return clause(cp, m, env)

    monkeypatch.setitem(model._CLAUSES, VarClassIs, counting)
    return evaluations


def _abc_model(n: int) -> ComponentModel:
    return ComponentModel(name="Big", components={
        f"C{i:04d}": Component(id=f"C{i:04d}", cls="ABC"[i % 3]) for i in range(n)})


@pytest.mark.parametrize("var, cls, body", [
    # a body that reads only x
    ("x", "A", Or(VarClassIs("x", "A"), Or(VarClassIs("x", "B"), VarClassIs("x", "C")))),
    # a constant leaf, never reached, since one class test holds
    ("x", "A", Or(VarClassIs("x", "A"), Or(VarClassIs("x", "B"),
                                             Or(VarClassIs("x", "C"), Started("C0000"))))),
    # an inner quantifier whose body reads the outer variable
    ("x", "Ghost", Exists("y", "components", Or(VarClassIs("y", "Ghost"),
                                                  Not(VarClassIs("x", "Ghost"))))),
], ids=["local", "constant-leaf", "nested"])
def test_one_evaluation_reads_a_body_at_most_once_per_class(monkeypatch, var, cls, body):
    evaluations = _count_class_reads(monkeypatch, var, cls)
    fn = compile_cp(ForAll("x", "components", body))
    # the first model holds no index, each later one the index of its run
    m = _abc_model(600)
    for i in range(5):
        evaluations.clear()
        assert fn(m, {}) is True
        assert 0 < len(evaluations) <= 3
        m = apply_primitive(Stop(f"C{i:04d}"), m)


def test_compiled_properties_raise_like_eval_cp(http_model):
    ghost_env = {"x": ("component", "Ghost")}
    cases = [
        (VarClassIs("x", "Alpha"), ghost_env),
        (VarClassIs("x", "Alpha"), {"x": ("binding", None)}),
        (And(TrueAtom(), "not a property node"), {}),
        # raised when evaluated, never when compiled, over an empty model too
        (ForAll("x", "nowhere", TrueAtom()), {}),
    ]
    for cp, env in cases:
        fn = compile_cp(cp)
        for m in (http_model, ComponentModel(name="E")):
            expected = _outcome(lambda: eval_cp(cp, m, env))
            assert expected[0] == "error"
            assert _outcome(lambda: fn(m, env)) == expected


def test_compiled_quantifiers_never_enumerate_a_domain(monkeypatch, http_model):
    # the checker's path reads one id per class and one binding: it neither
    # sorts nor lists a domain, so the sorted scan is the reference's alone
    def nested(cls):
        return ForAll("x", "components", Exists("y", "components", Or(
            VarClassIs("y", cls), Not(VarClassIs("x", "Handler")))))
    props = [nested("Server"), nested("Cache"),
             Exists("x", "components", ForAll("b", "bindings", And(VarPresent("b"), Or(
                 VarClassIs("x", "Cache"), Started("Nope"))))),
             ForAll("x", "bindings", Exists("y", "components", VarClassIs("y", "Ghost"))),
             ForAll("x", "components", Or(VarClassIs("x", "Cache"), Started("Nope")))]
    run = apply_primitive(Stop("CacheHandler"), http_model)
    models = [http_model, _abc_model(300), ComponentModel(name="E")]
    expected = [_outcome(lambda: eval_cp(cp, m)) for m in models + [run] for cp in props]
    assert {"error", bool} <= {kind for kind, _ in expected}

    def enumerate_domain(m, domain):
        raise AssertionError(f"the {domain} of {m.name} were enumerated")

    monkeypatch.setattr(model, "_domain_values", enumerate_domain)
    got = [_outcome(lambda: compile_cp(cp)(m, {})) for m in models + [run] for cp in props]
    assert got == expected


def _reference_eval_cp(cp, m, env=None):
    """The evaluator as an ``isinstance`` chain with a fresh environment per
    quantified value, kept as the reference the table-dispatched
    :func:`eval_cp` must agree with, value for value and message for message."""
    env = env or {}
    if isinstance(cp, TrueAtom):
        return True
    if isinstance(cp, FalseAtom):
        return False
    if isinstance(cp, ComponentPresent):
        return cp.id in m.components
    if isinstance(cp, Started):
        c = m.components.get(cp.id)
        if c is None:
            raise CpEvalError(f"started(): unknown component '{cp.id}'")
        return c.state == STARTED
    if isinstance(cp, Bound):
        return Binding(cp.out_component, cp.out_port, cp.in_component, cp.in_port) in m.bindings
    if isinstance(cp, Subcomponent):
        parent = m.components.get(cp.parent)
        return parent is not None and cp.child in parent.contains
    if isinstance(cp, ParamCmp):
        return model._eval_param_cmp(cp, m)
    if isinstance(cp, Not):
        return not _reference_eval_cp(cp.inner, m, env)
    if isinstance(cp, And):
        return _reference_eval_cp(cp.left, m, env) and _reference_eval_cp(cp.right, m, env)
    if isinstance(cp, Or):
        return _reference_eval_cp(cp.left, m, env) or _reference_eval_cp(cp.right, m, env)
    if isinstance(cp, Implies):
        return (not _reference_eval_cp(cp.left, m, env)) or _reference_eval_cp(cp.right, m, env)
    if isinstance(cp, ForAll):
        return all(_reference_eval_cp(cp.body, m, {**env, cp.var: v})
                   for v in model._domain_values(m, cp.domain))
    if isinstance(cp, Exists):
        return any(_reference_eval_cp(cp.body, m, {**env, cp.var: v})
                   for v in model._domain_values(m, cp.domain))
    if isinstance(cp, VarClassIs):
        kind, val = model._lookup_var(env, cp.var)
        if kind != "component":
            raise CpEvalError(f"class({cp.var}): variable is not component-typed")
        c = m.components.get(val)
        if c is None:
            raise CpEvalError(f"class({cp.var}): component '{val}' not in model")
        return c.cls == cp.cls
    if isinstance(cp, VarPresent):
        kind, val = model._lookup_var(env, cp.var)
        if kind == "component":
            return val in m.components
        return val in m.bindings
    raise CpEvalError(f"unknown property node {cp!r}")


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_eval_cp_agrees_with_the_reference_evaluator(seed):
    rng = random.Random(seed)
    m = generators.gen_model(rng)
    ops = list(generators.gen_recipes(rng, m).operation_table().values())
    props = _generated_properties(rng, m) + [Not(generators.gen_ill_formed_cp(rng, m))]
    # the generators' free variable, bound by the caller
    envs = [{}, {"free": ("component", "Core")}, {"free": ("component", "Ghost"), "x": None}]
    models = [m, ComponentModel(name="E")]
    for _ in range(3):
        models.append(apply_evolution(rng.choice(ops), models[-1]).result)
    for current in models:
        for cp in props:
            for env in envs:
                assert _outcome(lambda: eval_cp(cp, current, env)) == \
                    _outcome(lambda: _reference_eval_cp(cp, current, env))


@pytest.mark.parametrize("outer, inner", [(ForAll, Exists), (Exists, ForAll), (ForAll, ForAll)])
def test_an_inner_quantifier_rebinding_the_outer_variable_leaves_it_bound(http_model, outer,
                                                                          inner):
    # forall x in components ((exists x in bindings (present(x))) and class(x) = K):
    # after the inner quantifier, class(x) must see the component again
    def prop(cls):
        return outer("x", "components",
                     And(inner("x", "bindings", VarPresent("x")), VarClassIs("x", cls)))
    m = ComponentModel("M", {"A": Component("A", "K", outputs={"o": "T"}),
                             "B": Component("B", "K", inputs={"i": "T"})},
                       frozenset({Binding("A", "o", "B", "i")}))
    for cp, value in ((prop("K"), True), (prop("L"), False)):
        assert eval_cp(cp, m) is value
        assert _reference_eval_cp(cp, m) is value
        assert compile_cp(cp)(m, {}) is value
    # the caller's environment is read, never written
    env = {"x": ("component", "B")}
    assert eval_cp(prop("K"), m, env) is True and env == {"x": ("component", "B")}
    # no component of the HTTP study has class K
    assert eval_cp(prop("K"), http_model) is False


@pytest.mark.parametrize("node", ["not a property node", 42, None, object()])
def test_a_non_node_object_is_an_unknown_property_node(http_model, node):
    for cp in (node, And(TrueAtom(), node), ForAll("x", "components", Not(node))):
        with pytest.raises(CpEvalError, match=r"^unknown property node "):
            eval_cp(cp, http_model)
        assert _outcome(lambda: eval_cp(cp, http_model)) == \
            _outcome(lambda: _reference_eval_cp(cp, http_model))


def test_an_instance_of_a_node_subclass_is_evaluated_as_its_node(http_model):
    class Negation(Not):
        pass

    for cp in (Negation(TrueAtom()), And(TrueAtom(), Negation(FalseAtom())),
               Negation(ComponentPresent("CacheHandler"))):
        assert eval_cp(cp, http_model) is _reference_eval_cp(cp, http_model)
