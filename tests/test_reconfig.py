import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from reconfcheck import (
    AddComponent,
    Bind,
    Binding,
    Component,
    ComponentModel,
    Param,
    RemoveComponent,
    RUN,
    SetParam,
    STARTED,
    STOPPED,
    Start,
    Stop,
    Unbind,
    apply_evolution,
    apply_primitive,
    apply_sequence,
    erase_param_values,
    eval_cp,
    is_idempotent_sequence,
    parse_model,
    print_model,
    validate_model,
)
from reconfcheck.model import Bound, component_sum, fingerprint
from reconfcheck.reconfig import BinOp, IntLiteral, ParamRef

import generators


def test_remove_bound_component_drops_bindings(http_model):
    out = apply_primitive(RemoveComponent("CacheHandler"), http_model)
    assert out != http_model
    assert "CacheHandler" not in out.components
    assert all(b.out_component != "CacheHandler" and b.in_component != "CacheHandler"
               for b in out.bindings)
    # the parent composite no longer lists it
    assert "CacheHandler" not in out.components["HttpServer"].contains
    assert validate_model(out) == []


def test_remove_absent_is_identity(http_model):
    removed = apply_primitive(RemoveComponent("CacheHandler"), http_model)
    assert apply_primitive(RemoveComponent("CacheHandler"), removed) is removed


def test_add_twice_is_idempotent(http_model):
    template = Component(id="Probe", cls="FileStore", inputs={"p": "T1"})
    once = apply_primitive(AddComponent(template), http_model)
    assert once != http_model
    assert once.components["Probe"].state == STOPPED
    assert apply_primitive(AddComponent(template), once) is once


def test_add_forces_stopped_state(http_model):
    template = Component(id="Probe", cls="FileStore", state=STARTED)
    out = apply_primitive(AddComponent(template), http_model)
    assert out.components["Probe"].state == STOPPED


def test_add_rejects_bad_templates(http_model):
    # same name used as parameter and input port
    bad = Component(id="Probe", cls="X", params={"n": Param("int", 1)},
                    inputs={"n": "T1"})
    assert apply_primitive(AddComponent(bad), http_model) is http_model
    # contains pointing at a component that already has a parent
    grab = Component(id="Probe", cls="X", contains=frozenset({"CacheHandler"}))
    assert apply_primitive(AddComponent(grab), http_model) is http_model


@pytest.mark.parametrize("template", [
    Component(id="CacheHandler", cls="X"),  # the id is taken
    Component(id="Probe", cls="X", params={"n": Param("int", 1)}, outputs={"n": "T1"}),
    Component(id="Probe", cls="X", inputs={"n": "T1"}, outputs={"n": "T1"}),
    Component(id="Probe", cls="X", params={"n": Param("int", 1)},
              contains=frozenset({"FileServer1"})),  # a composite with a parameter
    Component(id="Probe", cls="X", params={"n": Param("int", "1")}),
    Component(id="Probe", cls="X", params={"n": Param("bool", 1)}),
    Component(id="Probe", cls="X", params={"n": Param("float", 1.0)}),
    Component(id="Probe", cls="X", params={"n": Param("int", None)}),  # erased value
    Component(id="Probe", cls="X", contains=frozenset({"Nope"})),
], ids=["taken-id", "param-output", "input-output", "composite-param", "string-as-int",
        "int-as-bool", "unknown-class", "erased-value", "unknown-child"])
def test_add_refuses_each_ill_typed_template(http_model, template):
    # without HttpServer every other component is a root, free to be contained
    roots = apply_primitive(RemoveComponent("HttpServer"), http_model)
    assert apply_primitive(AddComponent(template), roots) is roots


def test_add_ignores_the_template_state(http_model):
    roots = apply_primitive(RemoveComponent("HttpServer"), http_model)
    template = Component(id="Probe", cls="X", contains=frozenset({"FileServer1"}),
                         state="paused")
    out = apply_primitive(AddComponent(template), roots)
    assert out != roots
    assert out.components["Probe"].state == STOPPED
    assert validate_model(out) == []


def test_bind_preconditions(http_model):
    existing = Binding("CacheHandler", "cache", "RequestHandler", "getCache")
    assert apply_primitive(Bind(existing), http_model) is http_model  # duplicate
    mismatched = Binding("CacheHandler", "cache", "RequestReceiver", "request")
    assert apply_primitive(Bind(mismatched), http_model) is http_model  # class mismatch
    ghost = Binding("Nope", "cache", "RequestHandler", "getCache")
    assert apply_primitive(Bind(ghost), http_model) is http_model
    # input endpoint already bound by another output
    spare = apply_primitive(AddComponent(Component(id="Spare", cls="Cache",
                                                   outputs={"cache": "Tcache"})), http_model)
    taken = Binding("Spare", "cache", "RequestHandler", "getCache")
    assert apply_primitive(Bind(taken), spare) is spare
    # once unbound, the binding can be made again
    out = apply_primitive(Unbind(existing), http_model)
    rebound = apply_primitive(Bind(existing), out)
    assert rebound != out
    assert rebound == http_model


def test_unbind_absent_is_identity(http_model):
    missing = Binding("RequestDispatcher", "getServer", "RequestHandler", "getCache")
    assert apply_primitive(Unbind(missing), http_model) is http_model


def test_set_param_robustness(http_model):
    # missing component, missing param, reference to missing param: identity
    for op in (SetParam("Nope", "x", IntLiteral(1)),
               SetParam("CacheHandler", "nope", IntLiteral(1)),
               SetParam("CacheHandler", "memorySize", ParamRef("Nope", "x")),
               SetParam("CacheHandler", "memorySize",
                        BinOp("+", ParamRef("CacheHandler", "nope"), IntLiteral(1)))):
        assert apply_primitive(op, http_model) is http_model
    # setting a parameter to its current value changes nothing
    same = SetParam("CacheHandler", "memorySize", IntLiteral(100))
    assert apply_primitive(same, http_model) is http_model


def test_stop_start_run(http_model):
    stopped = apply_primitive(Stop("CacheHandler"), http_model)
    assert stopped != http_model
    assert stopped.components["CacheHandler"].state == STOPPED
    assert apply_primitive(Stop("CacheHandler"), stopped) is stopped
    assert apply_primitive(Start("Nope"), stopped) is stopped
    ran = apply_evolution(RUN, stopped)
    assert ran.changed
    assert ran.result == http_model
    ran_again = apply_evolution(RUN, ran.result)
    assert not ran_again.changed  # all started already: identity


def test_run_on_an_all_started_model_returns_its_input(http_model):
    assert all(c.state == STARTED for c in http_model.components.values())
    assert apply_evolution(RUN, http_model).result is http_model
    stopped = apply_primitive(Stop("CacheHandler"), http_model)
    ran = apply_evolution(RUN, stopped).result
    # only the stopped component is rebuilt; every other one is shared
    assert [cid for cid, c in ran.components.items()
            if c is not stopped.components[cid]] == ["CacheHandler"]
    assert ran.bindings is stopped.bindings and ran.delegations is stopped.delegations


def _remove_rebuilding_everything(m: ComponentModel, rid: str) -> ComponentModel:
    """The reference removal: every component, binding and delegation is
    visited and the link sets are built anew."""
    if rid not in m.components:
        return m
    comps = {cid: replace(c, contains=c.contains - {rid}) if rid in c.contains else c
             for cid, c in m.components.items() if cid != rid}
    bindings = frozenset(b for b in m.bindings if rid not in (b.out_component, b.in_component))
    delegations = frozenset(d for d in m.delegations if rid not in (d.composite, d.inner))
    return replace(m, components=comps, bindings=bindings, delegations=delegations)


def test_remove_untouched_by_links_shares_both_link_sets(http_model):
    fresh = Component(id="Lonely", cls="Spare", inputs={"in": "Tserver"})
    m = apply_primitive(AddComponent(fresh), http_model)
    out = apply_primitive(RemoveComponent("Lonely"), m)
    assert out.bindings is m.bindings and out.delegations is m.delegations
    assert out == http_model
    assert all(out.components[cid] is c for cid, c in http_model.components.items())
    # a bound component without delegations keeps only the delegation set
    out = apply_primitive(RemoveComponent("CacheHandler"), http_model)
    assert out.delegations is http_model.delegations
    assert out.bindings != http_model.bindings


@pytest.mark.parametrize("rid", ["HttpServer", "RequestReceiver", "CacheHandler",
                                 "RequestDispatcher", "FileServer1"])
def test_remove_matches_the_full_rebuild(http_model, rid):
    # HttpServer is a composite with a delegation, RequestReceiver a child that
    # is the inner end of it, CacheHandler a child with one binding
    out = apply_primitive(RemoveComponent(rid), http_model)
    expected = _remove_rebuilding_everything(http_model, rid)
    assert out == expected
    assert print_model(out) == print_model(expected)
    assert validate_model(out) == []


def test_remove_matches_the_full_rebuild_on_generated_models():
    rng = random.Random(5005)
    for _ in range(200):
        m = generators.gen_model(rng)
        rid = rng.choice(list(m.components) + ["Ghost"])
        out = apply_primitive(RemoveComponent(rid), m)
        assert out == _remove_rebuilding_everything(m, rid)
        assert print_model(out) == print_model(_remove_rebuilding_everything(m, rid))


def test_changed_is_compared_only_when_read(http_model, http_ops, monkeypatch):
    compared = []
    eq = ComponentModel.__eq__
    monkeypatch.setattr(ComponentModel, "__eq__",
                        lambda self, other: compared.append(1) or eq(self, other))
    stopped = apply_evolution(Stop("CacheHandler"), http_model).result
    outcomes = [apply_evolution(RUN, stopped),
                apply_evolution(http_ops["AddCacheHandler"], http_model),  # both steps fail
                apply_evolution(Stop("CacheHandler"), http_model)]
    assert compared == []
    assert [o.changed for o in outcomes] == [True, False, True]
    assert len(compared) == 3
    assert outcomes[1].result is http_model


def test_composite_add_cache_handler_restores_connection(http_model, http_ops):
    removed = apply_evolution(http_ops["RemoveCacheHandler"], http_model).result
    cc = Bound("CacheHandler", "cache", "RequestHandler", "getCache")
    assert eval_cp(cc, removed) is False
    readded = apply_evolution(http_ops["AddCacheHandler"], removed)
    assert readded.changed
    assert eval_cp(cc, readded.result) is True


def test_cycle_idempotence_modes(http_model, http_ops):
    # entry configuration: after the base path's prefix
    entry = apply_sequence([http_ops["run"], http_ops["RemoveCacheHandler"],
                            http_ops["AddCacheHandler"]], http_model)
    cycle = [http_ops[n] for n in ("MemorySizeUp", "run", "AddFileServer",
                                   "DurationValidityUp", "DeleteFileServer")]
    assert is_idempotent_sequence(cycle, entry, ignore_params=False) is False
    assert is_idempotent_sequence(cycle, entry, ignore_params=True) is True


def test_set_literal_is_idempotent(http_model, http_ops):
    assert is_idempotent_sequence([http_ops["DeviationReset"]], http_model,
                                  ignore_params=False) is True


def test_increment_is_not_idempotent(http_model, http_ops):
    assert is_idempotent_sequence([http_ops["DeviationUp"]], http_model,
                                  ignore_params=False) is False


def _random_topological_primitive(rng, m):
    while True:
        step = generators._gen_step(rng, m)
        if isinstance(step, (AddComponent, RemoveComponent, Bind, Unbind)):
            return step


def test_topological_primitives_idempotent_property():
    rng = random.Random(1001)
    for _ in range(120):
        m = generators.gen_model(rng)
        op = _random_topological_primitive(rng, m)
        once = apply_primitive(op, m)
        assert apply_primitive(op, once) is once  # its precondition now fails


def test_commuting_idempotent_pairs_compose_idempotently():
    rng = random.Random(2002)
    found = 0
    while found < 60:
        m = generators.gen_model(rng)
        f = _random_topological_primitive(rng, m)
        g = _random_topological_primitive(rng, m)
        fg = apply_primitive(g, apply_primitive(f, m))
        gf = apply_primitive(f, apply_primitive(g, m))
        if fg != gf:
            continue
        found += 1
        assert apply_primitive(g, apply_primitive(f, fg)) == fg


def test_add_then_delete_file_server_cancels(http_model, http_ops):
    # on a model without the second file server, the pair acts as identity
    after = apply_sequence([http_ops["AddFileServer"], http_ops["DeleteFileServer"]],
                           http_model)
    assert after == http_model


def test_closure_under_evolution():
    rng = random.Random(3003)
    for _ in range(40):
        m = generators.gen_model(rng)
        ops = generators.gen_recipes(rng, m).operation_table()
        current = m
        for _ in range(10):
            outcome = apply_evolution(ops[rng.choice(list(ops))], current)
            assert outcome.source is current
            assert outcome.changed == (print_model(current) != print_model(outcome.result))
            current = outcome.result
            assert validate_model(current) == []


# --- fingerprints --------------------------------------------------------------

def _from_scratch(m: ComponentModel) -> ComponentModel:
    """An equal model of fresh objects: nothing computed for ``m`` or its
    components is carried over."""
    return ComponentModel(m.name, {cid: replace(c) for cid, c in m.components.items()},
                          m.bindings, m.delegations)


def _assert_derived(m: ComponentModel) -> None:
    # an operation's output carries the sum it derived; it must be the one a
    # fresh copy computes
    assert m._component_sum is not None
    assert m._component_sum == component_sum(_from_scratch(m))
    assert fingerprint(m) == fingerprint(_from_scratch(m))


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_every_operation_derives_the_sum_a_fresh_model_computes(seed):
    rng = random.Random(seed)
    m = generators.gen_model(rng)
    recipes = generators.gen_recipes(rng, m)
    for _ in range(8):
        composite = rng.choice(list(recipes.recipes))
        for step in recipes.recipes[composite]:
            out = apply_primitive(step, m)
            if out is not m:
                _assert_derived(out)
            _assert_derived(erase_param_values(out))
        m = apply_evolution(recipes.operation_table()[composite], m).result
        ran = apply_evolution(RUN, m).result
        for out in (erase_param_values(ran), erase_param_values(erase_param_values(m)), ran, m):
            _assert_derived(out)
        m = ran if rng.random() < 0.5 else m


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_equal_models_reached_by_different_orders_share_a_fingerprint(seed):
    rng = random.Random(seed)
    m = generators.gen_model(rng)
    steps = [generators._gen_step(rng, m) for _ in range(rng.randint(2, 5))]
    one = apply_sequence(steps, m)
    for _ in range(6):
        other = apply_sequence(rng.sample(steps, len(steps)), m)
        if other == one:
            assert fingerprint(other) == fingerprint(one)
        if erase_param_values(other) == erase_param_values(one):
            assert fingerprint(erase_param_values(other)) == \
                fingerprint(erase_param_values(one))
    # a model of fresh objects, made by the parser, agrees as well
    parsed = parse_model(print_model(one))
    assert parsed == one and fingerprint(parsed) == fingerprint(one)


def test_stop_then_start_returns_to_the_same_fingerprint(http_model):
    stopped = apply_primitive(Stop("CacheHandler"), http_model)
    started = apply_primitive(Start("CacheHandler"), stopped)
    assert started == http_model and started is not http_model
    assert fingerprint(started) == fingerprint(http_model)
    assert fingerprint(stopped) != fingerprint(http_model)


def test_replace_and_the_parser_never_carry_a_cached_hash(http_model):
    bumped = apply_primitive(SetParam("RequestHandler", "deviation", IntLiteral(9)), http_model)
    handler = bumped.components["RequestHandler"]
    hash(handler)
    assert handler._hash is not None and bumped._component_sum is not None
    for copy in (replace(handler), replace(handler, state=STOPPED)):
        assert copy._hash is None
    assert replace(handler) == handler and hash(replace(handler)) == hash(handler)
    assert hash(replace(handler, state=STOPPED)) != hash(handler)
    assert "_hash" not in repr(handler)
    for copy in (replace(bumped), replace(bumped, bindings=frozenset())):
        assert copy._component_sum is None
    assert component_sum(replace(bumped)) == bumped._component_sum
    parsed = parse_model(print_model(bumped))
    assert parsed == bumped and parsed._component_sum is None
    assert all(c._hash is None for c in parsed.components.values())
