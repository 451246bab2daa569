"""The index of what operations look up (``model.ModelIndex``).

Every part an index holds must equal the part a fresh build of its model
computes, whichever way the model was made and whichever model an
operation is applied to.  Only the newest model of a run holds an index:
each part is built once per run, and the models a caller keeps, erases or
reads hold none.
"""

import random
import sys
import tracemalloc
from collections import Counter
from itertools import chain, islice

from hypothesis import given, settings, strategies as st

from reconfcheck import (
    RUN,
    AddComponent,
    Bind,
    Binding,
    CheckOptions,
    Component,
    ComponentModel,
    CpEvalError,
    Delegation,
    Param,
    RemoveComponent,
    apply_evolution,
    apply_primitive,
    build_automaton,
    check,
    erase_param_values,
    parse_formula,
    parse_model,
    parse_path,
    print_model,
    run_path,
)
from reconfcheck import model
from reconfcheck.model import ForAll, VarClassIs, binding_key, compile_cp, composed, hold_index
from reconfcheck.reconfig import Composite

import generators


def _normal(name: str, part) -> object:
    # the order of a component's links is the order they came in
    if name == "links":
        return {cid: sorted(bs, key=binding_key) for cid, bs in part.items()}
    return part


def _assert_fresh(m: ComponentModel) -> None:
    """Each part ``m``'s index holds equals the part a fresh build computes."""
    index = m._index
    for name, build in model._BUILDERS.items():
        part = getattr(index, name)
        if part is not None:
            assert _normal(name, part) == _normal(name, build(m)), name


def _extra_steps(rng: random.Random, m: ComponentModel):
    """Steps the recipe generator never draws: a component with a parameter,
    a composite that adopts a root component, and removals of a class's
    least id while the class keeps other members."""
    roots = sorted(set(m.components) - {c for p in m.components.values() for c in p.contains})
    yield AddComponent(Component("Probe", "Gauge", params={"v": Param("int", 1)}))
    yield RemoveComponent("Probe")
    yield AddComponent(Component("Box", "Shell", contains=frozenset(rng.sample(roots, 1))))
    yield RemoveComponent("Box")
    # A0 and A1 sort before every generated id: each is its class's least id
    # while present, and the class has members besides
    for least, member in zip(("A0", "A1"), rng.sample(sorted(m.components), 2)):
        yield AddComponent(Component(least, m.components[member].cls))
        yield RemoveComponent(least)
        yield RemoveComponent(member)


def _rebuilt(m: ComponentModel) -> ComponentModel:
    """``m`` built again by its constructor, which attaches no index."""
    return ComponentModel(m.name, m.components, m.bindings, m.delegations)


def _start(rng: random.Random) -> ComponentModel:
    m = generators.gen_model(rng)
    return rng.choice((m, parse_model(print_model(m)), _rebuilt(m)))


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_every_operation_keeps_the_index_a_fresh_build_computes(seed):
    rng = random.Random(seed)
    m = _start(rng)
    recipes = generators.gen_recipes(rng, m)
    ops = recipes.operation_table()
    steps = [s for r in recipes.recipes.values() for s in r] + list(_extra_steps(rng, m))
    models = [m]
    for _ in range(24):
        # mostly the newest model, as a run does; else an older one, whose
        # successor took its index, or a copy that holds none
        base = models[-1] if rng.random() < 0.6 else rng.choice(models)
        action = rng.random()
        if action < 0.5:
            out = apply_primitive(rng.choice(steps), base)
        elif action < 0.75:
            out = apply_evolution(ops[rng.choice(sorted(ops))], base).result
        elif action < 0.85:
            out = apply_evolution(RUN, base).result
        elif action < 0.95:
            out = erase_param_values(base)
            assert out._index is None
        else:
            out = _rebuilt(base)
            assert out._index is None
        if out is not base:
            models.append(out)
        for kept in models:
            if kept._index is not None:
                _assert_fresh(kept)
        # build some missing parts, so later operations must keep them up to date
        if out._index is not None:
            for name in model._BUILDERS:
                if rng.random() < 0.5:
                    out._index.part(name, out)
            _assert_fresh(out)


def _lassos(count: int):
    """(automaton, model, operations) of generated lassos whose cycle runs."""
    seed = 0
    while count:
        _f, a, c0, ops = generators.gen_case(seed)
        seed += 1
        if a.has_cycle:
            count -= 1
            yield a, c0, ops


def test_an_operation_replaces_a_component_in_its_state_values_or_children_only(monkeypatch):
    # ModelIndex.replace keeps only stopped, and parents where a remove took
    # a parent's last child: no operation changes a component's id, class or
    # parameter names in place, or gives it a child
    seen = Counter()
    replace = model.ModelIndex.replace

    def watched(index, old, new):
        assert (new.id, new.cls, new.params.keys()) == (old.id, old.cls, old.params.keys())
        assert new.contains <= old.contains
        seen["state"] += old.state != new.state
        seen["values"] += old.params != new.params
        seen["child removed"] += old.contains != new.contains
        seen["last child removed"] += bool(old.contains) and not new.contains
        replace(index, old, new)

    monkeypatch.setattr(model.ModelIndex, "replace", watched)
    for seed in range(300):
        _f, a, c0, ops = generators.gen_case(seed)
        m = c0 = _rebuilt(c0)
        for _label, _q, m in islice(run_path(a, ops, 0, c0), 3 * a.n_states):
            pass
        for step in _extra_steps(random.Random(seed), c0):
            m = apply_primitive(step, m)
        _assert_fresh(m)
    assert min(seen.values()) > 20, seen


def test_a_run_hands_one_index_on_and_builds_each_part_once(monkeypatch):
    built = Counter()

    def counting(name, build):
        def wrapped(m):
            built[name] += 1
            return build(m)
        return wrapped

    for name, build in list(model._BUILDERS.items()):
        monkeypatch.setitem(model._BUILDERS, name, counting(name, build))
    for a, c0, ops in _lassos(60):
        built.clear()
        c0 = _rebuilt(c0)  # a model no earlier run handed an index
        laps = 3 * a.n_states - 2 * a.back_target  # the prefix and three laps of the cycle
        seen = [c0]
        for _label, _q, c in islice(run_path(a, ops, 0, c0), laps):
            seen.append(c)
            assert len({id(m) for m in seen if m._index is not None}) <= 1
            assert seen[-1]._index is not None  # the newest holds it
        assert all(n == 1 for n in built.values()), built


def test_a_log_set_on_the_index_gets_every_change_the_run_made_since():
    rng = random.Random(5)
    for a, c0, ops in _lassos(60):
        c0 = _rebuilt(c0)
        laps = 3 * a.n_states - 2 * a.back_target
        opened, log = c0, None
        for _label, _q, c in islice(run_path(a, ops, 0, c0), laps):
            index = c._index
            if log is None:
                assert index.log is None  # nothing is logged until a reader sets a list
            else:
                assert index.log is log
                assert composed([log]).onto(opened) == c
            if rng.random() < 0.4:  # a reader's step: the model it read, and a log from there
                opened, log = c, []
                index.log = log


def test_readers_and_refused_operations_attach_no_index(http_model):
    m = _rebuilt(http_model)
    erased = erase_param_values(m)
    assert m._index is None and erased._index is None
    quantifier = compile_cp(ForAll("x", "components", VarClassIs("x", "RequestHandler")))
    assert quantifier(m, {}) is False and m._index is None
    taken = next(iter(m.bindings))
    for refused in (RemoveComponent("Nope"), Bind(taken),
                    Bind(Binding("CacheHandler", "nope", "RequestHandler", "nope"))):
        assert apply_primitive(refused, m) is m and m._index is None
    assert apply_evolution(RUN, m).result is m and m._index is None  # all started
    # a model that holds an index keeps it through the same readers, and
    # an erased copy never takes it
    held = apply_evolution(RUN, apply_primitive(RemoveComponent("CacheHandler"), m)).result
    index = held._index
    assert index is not None
    assert erase_param_values(held)._index is None and held._index is index
    assert quantifier(held, {}) is False and held._index is index
    assert apply_primitive(RemoveComponent("Nope"), held) is held and held._index is index


def test_only_the_newest_model_of_a_run_holds_an_index():
    # the index moves with each step, and an unfolding leaves it where the
    # run stopped: no model the run handed on holds one, nor any key
    checked = 0
    for a, c0, ops in _lassos(60):
        for erased in (False, True):
            start = _rebuilt(c0)
            # the run up to its first repeated (state, key), as the oracle unfolds it
            made, models, keys, entered = [], [], [], {}
            for _label, q, c in chain([("", 0, start)], islice(run_path(a, ops, 0, start), 400)):
                made.append(c)
                k = erase_param_values(c) if erased else c
                if entered.setdefault((q, k), len(keys)) < len(keys):
                    checked += 1
                    break
                models.append(c)
                keys.append(k)
            newest = made[-1]
            assert newest._index is not None
            _assert_fresh(newest)
            # a step that changes nothing hands on the model it was given
            assert all(c._index is None for c in made if c is not newest)
            assert all(c._index is None for c in models if c is not newest)
            assert all(k._index is None for k in keys if k is not newest)
    assert checked > 50


def _chain_model(n: int) -> ComponentModel:
    """``n`` workers bound in a chain into a hub, one in ten stopped."""
    comps = {"Hub": Component("Hub", "Hub", inputs={"head": "TW", "x": "TX"})}
    for i in range(n):
        cid = f"W{i:04d}"
        comps[cid] = Component(cid, "Worker", inputs={"i": "TW"}, outputs={"o": "TW"},
                               state="stopped" if i % 10 == 0 else "started")
    ids = sorted(c for c in comps if c != "Hub") + ["Hub"]
    bindings = frozenset(Binding(a, "o", b, "head" if b == "Hub" else "i")
                         for a, b in zip(ids, ids[1:]))
    return ComponentModel("Chain", comps, bindings)


def test_a_check_builds_each_index_part_at_most_once(monkeypatch):
    # with the oracle off, the check's run holds the one index from position
    # 0 on, and a nested instance rebuilds the positions it walks again from
    # the run's records, with none
    built = Counter()

    def counting(name, build):
        def wrapped(m):
            built[name] += 1
            return build(m)
        return wrapped

    for name, build in list(model._BUILDERS.items()):
        monkeypatch.setitem(model._BUILDERS, name, counting(name, build))
    checked = 0
    for seed in range(600):
        f, a, c0, ops = generators.gen_case(seed)
        for max_steps in (None, 2 * a.n_states):
            built.clear()
            try:
                check(f, a, c0, ops, CheckOptions(max_steps=max_steps))
            except CpEvalError:
                continue
            assert all(n == 1 for n in built.values()), (seed, max_steps, built)
            checked += bool(built)
    assert checked > 500
    # every occurrence of RmX starts an eventually that walks again
    # positions the after walked, on a model large enough for a rebuilt
    # part to show
    extra = Component("X", "Extra", outputs={"feed": "TX"})
    ops = {"AddX": Composite("AddX", (AddComponent(extra),
                                      Bind(Binding("X", "feed", "Hub", "x")))),
           "run": RUN, "RmX": Composite("RmX", (RemoveComponent("X"),))}
    a = build_automaton(parse_path("run (AddX run RmX)+", known_ops=set(ops)))
    f = parse_formula("after RmX terminates eventually "
                      "[exists x in components (class(x) = Extra)]", known_ops=set(ops))
    built.clear()
    assert check(f, a, _chain_model(1600), ops).is_holds
    assert built["links"] == 1 and all(n == 1 for n in built.values()), built


def test_a_kept_model_costs_its_own_component_dict_and_binding_set():
    # a run that keeps every model, as a window does: add a component and
    # bind it, start it, remove it, over and over
    n, kept = 800, 60
    m = _chain_model(n)
    extra = Component("X", "Extra", outputs={"feed": "TX"})
    ops = {"AddX": Composite("AddX", (AddComponent(extra),
                                      Bind(Binding("X", "feed", "Hub", "x")))),
           "run": RUN, "RmX": Composite("RmX", (RemoveComponent("X"),))}
    a = build_automaton(parse_path("(AddX run RmX)+", known_ops=set(ops)))
    run = run_path(a, ops, 0, m)
    for _ in islice(run, 3):
        pass  # the first lap builds every part the run reads
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    models = [c for _label, _q, c in islice(run, kept)]
    per_model = (tracemalloc.get_traced_memory()[0] - before) / kept
    tracemalloc.stop()
    # a kept model costs at most a new component dict, a new binding set (two
    # steps in three make one) and 2 kB for the model object and the
    # components it changed: 61 kB at n = 800, where 48 kB were measured on
    # CPython 3.11.  An index of its own would add its links part, 67 kB more
    bound = sys.getsizeof(m.components) + sys.getsizeof(m.bindings) + 2048
    assert per_model < bound, (per_model, bound)
    assert sum(c._index is not None for c in models) == 1


def test_one_change_updates_every_part_the_way_a_fresh_build_does():
    # derive_model is the one place a model changes: one change that puts a
    # new component and a replacement, takes one out, cuts and makes
    # bindings (self-loops among them) and cuts a delegation, on a model
    # whose index has every part built
    ports = {"inputs": {"i": "T"}, "outputs": {"o": "T"}}
    comps = {"P": Component("P", "Shell", contains=frozenset({"B"}), **ports),
             "B": Component("B", "Worker", params={"v": Param("int", 1)}, **ports),
             "C": Component("C", "Worker", state="stopped", **ports),
             "D": Component("D", "Gauge", params={"w": Param("int", 2)}, **ports)}
    kept = (Binding("B", "o", "P", "i"),)
    cut = (Binding("P", "o", "C", "i"), Binding("C", "o", "B", "i"), Binding("D", "o", "D", "i"))
    made = (Binding("B", "o", "B", "i"), Binding("D", "o", "B", "i"))
    delegation = Delegation("P", "i", "B", "i")
    m = ComponentModel("M", comps, frozenset(kept + cut), frozenset({delegation}))
    before = _rebuilt(m)
    hold_index(m)
    index = m._index
    for name in model._BUILDERS:
        index.part(name, m)
    new = Component("N", "Box", params={"x": Param("int", 3)}, contains=frozenset({"D"}),
                    state="stopped")
    # stopped and childless, as a stop and the removal of its last child
    # leave it: a flip of both parts an operation can move in place
    replaced = comps["P"].evolve(contains=frozenset(), state="stopped")
    out = model.derive_model(m, (new, replaced), ("C",), cut=cut, made=made,
                             uncoupled=(delegation,), index=index)
    assert list(out.components) == ["P", "B", "D", "N"]
    assert out.components["P"] is replaced and out.components["N"] is new
    assert out.bindings == frozenset(kept + made) and out.delegations == frozenset()
    assert m == before  # m itself is left as it was
    assert m._index is None and out._index is index
    assert all(getattr(index, name) is not None for name in model._BUILDERS)
    _assert_fresh(out)
    assert model.component_sum(out) == model.component_sum(_rebuilt(out))
    assert hash(out) == hash(_rebuilt(out))
