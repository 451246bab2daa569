import random

import pytest

from reconfcheck import (
    AddComponent,
    Bind,
    Binding,
    Component,
    Param,
    RemoveComponent,
    RUN,
    SetParam,
    STARTED,
    STOPPED,
    Stop,
    Unbind,
    apply_evolution,
    apply_primitive,
    apply_sequence,
    eval_cp,
    is_idempotent_sequence,
    validate_model,
)
from reconfcheck.model import Bound
from reconfcheck.reconfig import BinOp, IntLiteral, ParamRef

import generators


def test_remove_bound_component_drops_bindings(http_model):
    out = apply_primitive(RemoveComponent("CacheHandler"), http_model)
    assert out.changed
    assert "CacheHandler" not in out.result.components
    assert all(b.out_component != "CacheHandler" and b.in_component != "CacheHandler"
               for b in out.result.bindings)
    # the parent composite no longer lists it
    assert "CacheHandler" not in out.result.components["HttpServer"].contains
    assert validate_model(out.result) == []


def test_remove_absent_is_identity(http_model):
    out = apply_primitive(RemoveComponent("CacheHandler"),
                          apply_primitive(RemoveComponent("CacheHandler"), http_model).result)
    assert not out.changed


def test_add_twice_is_idempotent(http_model):
    template = Component(id="Probe", cls="FileStore", inputs={"p": "T1"})
    once = apply_primitive(AddComponent(template), http_model)
    assert once.changed
    assert once.result.components["Probe"].state == STOPPED
    twice = apply_primitive(AddComponent(template), once.result)
    assert not twice.changed
    assert once.result == twice.result


def test_add_forces_stopped_state(http_model):
    template = Component(id="Probe", cls="FileStore", state=STARTED)
    out = apply_primitive(AddComponent(template), http_model)
    assert out.result.components["Probe"].state == STOPPED


def test_add_rejects_bad_templates(http_model):
    # same name used as parameter and input port
    bad = Component(id="Probe", cls="X", params={"n": Param("int", 1)},
                    inputs={"n": "T1"})
    assert not apply_primitive(AddComponent(bad), http_model).changed
    # contains pointing at a component that already has a parent
    grab = Component(id="Probe", cls="X", contains=frozenset({"CacheHandler"}))
    assert not apply_primitive(AddComponent(grab), http_model).changed


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
    roots = apply_primitive(RemoveComponent("HttpServer"), http_model).result
    assert not apply_primitive(AddComponent(template), roots).changed


def test_add_ignores_the_template_state(http_model):
    roots = apply_primitive(RemoveComponent("HttpServer"), http_model).result
    template = Component(id="Probe", cls="X", contains=frozenset({"FileServer1"}),
                         state="paused")
    out = apply_primitive(AddComponent(template), roots)
    assert out.changed
    assert out.result.components["Probe"].state == STOPPED
    assert validate_model(out.result) == []


def test_bind_preconditions(http_model):
    existing = Binding("CacheHandler", "cache", "RequestHandler", "getCache")
    assert not apply_primitive(Bind(existing), http_model).changed  # duplicate
    mismatched = Binding("CacheHandler", "cache", "RequestReceiver", "request")
    assert not apply_primitive(Bind(mismatched), http_model).changed  # class mismatch
    ghost = Binding("Nope", "cache", "RequestHandler", "getCache")
    assert not apply_primitive(Bind(ghost), http_model).changed
    # input endpoint already bound by another output
    out = apply_primitive(Unbind(existing), http_model)
    rebound = apply_primitive(Bind(existing), out.result)
    assert rebound.changed
    assert rebound.result == http_model


def test_unbind_absent_is_identity(http_model):
    missing = Binding("RequestDispatcher", "getServer", "RequestHandler", "getCache")
    assert not apply_primitive(Unbind(missing), http_model).changed


def test_set_param_robustness(http_model):
    # missing component, missing param, reference to missing param: identity
    for op in (SetParam("Nope", "x", IntLiteral(1)),
               SetParam("CacheHandler", "nope", IntLiteral(1)),
               SetParam("CacheHandler", "memorySize", ParamRef("Nope", "x")),
               SetParam("CacheHandler", "memorySize",
                        BinOp("+", ParamRef("CacheHandler", "nope"), IntLiteral(1)))):
        assert not apply_primitive(op, http_model).changed
    # setting a parameter to its current value changes nothing
    same = SetParam("CacheHandler", "memorySize", IntLiteral(100))
    assert not apply_primitive(same, http_model).changed


def test_stop_start_run(http_model):
    stopped = apply_primitive(Stop("CacheHandler"), http_model)
    assert stopped.changed
    assert stopped.result.components["CacheHandler"].state == STOPPED
    again = apply_primitive(Stop("CacheHandler"), stopped.result)
    assert not again.changed
    ran = apply_evolution(RUN, stopped.result)
    assert ran.changed
    assert ran.result == http_model
    ran_again = apply_evolution(RUN, ran.result)
    assert not ran_again.changed  # all started already: identity


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
        once = apply_primitive(op, m).result
        twice = apply_primitive(op, once).result
        assert once == twice


def test_commuting_idempotent_pairs_compose_idempotently():
    rng = random.Random(2002)
    found = 0
    while found < 60:
        m = generators.gen_model(rng)
        f = _random_topological_primitive(rng, m)
        g = _random_topological_primitive(rng, m)
        fg = apply_primitive(g, apply_primitive(f, m).result).result
        gf = apply_primitive(f, apply_primitive(g, m).result).result
        if fg != gf:
            continue
        found += 1
        assert apply_primitive(g, apply_primitive(f, fg).result).result == fg


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
            assert outcome.changed == (current != outcome.result)
            current = outcome.result
            assert validate_model(current) == []
