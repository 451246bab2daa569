import gc
import hashlib
import random
import tracemalloc
import weakref
from decimal import Decimal
from itertools import chain, count, islice

import pytest

from reconfcheck import (
    AdlSyntaxError,
    AdlValidationError,
    Binding,
    Component,
    ComponentModel,
    Param,
    RecipeSet,
    RemoveComponent,
    apply_evolution,
    apply_primitive,
    build_automaton,
    check,
    parse_formula,
    parse_model,
    parse_path,
    parse_recipes,
    print_model,
    run_path,
    validate_model,
)
from reconfcheck import adl, checker
from reconfcheck.adl import MAX_NESTING, model_digest, model_digester, print_recipes
from reconfcheck.model import Change, composed
from reconfcheck.reconfig import BinOp, IntLiteral, ParamRef, SetParam

import generators


def test_http_model_parses(http_model):
    assert http_model.name == "HttpServerArch"
    assert len(http_model.components) == 6
    assert len(http_model.bindings) == 4
    assert len(http_model.delegations) == 1
    server = http_model.components["HttpServer"]
    assert server.contains
    assert "CacheHandler" in server.contains


def test_empty_model():
    m = parse_model("model M { }")
    assert m.name == "M"
    assert m.components == {}
    assert print_model(m) == "model M {\n}\n"


def test_parse_reports_position():
    with pytest.raises(AdlSyntaxError) as err:
        parse_model("model M {\n  component X {\n}")
    assert err.value.line == 3


def test_parse_rejects_duplicates():
    with pytest.raises(AdlSyntaxError):
        parse_model("model M { component A { class X } component A { class X } }")
    with pytest.raises(AdlSyntaxError):
        parse_model("model M { component A { class X class Y } }")


def test_parse_validation_failure():
    text = """
    model M {
      composite Top { class T param x : int = 1 contains Leaf }
      component Leaf { class L }
    }
    """
    # parsing checks the syntax only; the validator, which check runs,
    # finds the violation
    m = parse_model(text)
    violations = validate_model(m)
    assert len(violations) == 1 and "parameters" in violations[0]
    with pytest.raises(AdlValidationError) as err:
        check(parse_formula("always [true]"), build_automaton(parse_path("run")), m,
              RecipeSet({}).operation_table())
    assert err.value.violations == violations


def test_model_round_trip_http(http_model):
    assert parse_model(print_model(http_model)) == http_model


def test_round_trip_generated_models():
    rng = random.Random(21)
    for _ in range(100):
        m = generators.gen_model(rng)
        assert parse_model(print_model(m)) == m


def test_canonical_printing_is_order_insensitive():
    a = parse_model("""
    model M {
      component B { class Beta input i : T1 }
      component A { class Alpha output o : T1 param z : int = 3 param a : bool = true }
      bind A.o -> B.i
    }
    """)
    b = parse_model("""
    model M {
      component A { class Alpha param a : bool = true param z : int = 3 output o : T1 }
      bind A.o -> B.i
      component B { class Beta input i : T1 }
    }
    """)
    assert a == b
    assert print_model(a) == print_model(b)
    assert model_digest(a) == model_digest(b)


def test_string_param_escaping_round_trip():
    m = parse_model('model M { component A { class X param s : string = "a \\"b\\" \\\\ c" } }')
    assert m.components["A"].params["s"].value == 'a "b" \\ c'
    assert parse_model(print_model(m)) == m


def test_recipes_single_step(http_recipes):
    steps = http_recipes.recipes["RemoveCacheHandler"]
    assert len(steps) == 1


def test_recipes_empty_file():
    rs = parse_recipes("")
    assert rs.recipes == {}
    assert rs.names() == ["run"]


def test_recipe_arithmetic_application(http_model, http_ops):
    bumped = apply_evolution(http_ops["MemorySizeUp"], http_model).result
    assert bumped.components["CacheHandler"].params["memorySize"].value == 110


def test_recipe_arithmetic_parsing():
    rs = parse_recipes("op T { set A.x := param(A.x) * 2 + (3 - 1) }")
    step = rs.recipes["T"][0]
    assert isinstance(step, SetParam)
    assert step.expr == BinOp("+", BinOp("*", ParamRef("A", "x"), IntLiteral(2)),
                              BinOp("-", IntLiteral(3), IntLiteral(1)))


def test_recipe_errors():
    with pytest.raises(AdlSyntaxError):
        parse_recipes("op A { stop X } op A { stop X }")
    with pytest.raises(AdlSyntaxError):
        parse_recipes("op Empty { }")
    with pytest.raises(AdlSyntaxError):
        parse_recipes("op run { stop X }")


def test_recipe_round_trip_http(http_recipes):
    assert parse_recipes(print_recipes(http_recipes)) == http_recipes


def test_recipe_round_trip_generated():
    rng = random.Random(31)
    for _ in range(100):
        m = generators.gen_model(rng)
        rs = generators.gen_recipes(rng, m)
        assert parse_recipes(print_recipes(rs)) == rs


def test_fuzzed_mutations_only_raise_syntax_errors(samples_dir):
    rng = random.Random(77)
    source = (samples_dir / "http.arch").read_text()
    tokens = source.split(" ")
    junk = ["{", "}", "->", ":", "bind", "component", '"oops', "123", "@", ""]
    for _ in range(200):
        mutated = list(tokens)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(mutated))
            action = rng.random()
            if action < 0.4:
                mutated[pos] = rng.choice(junk)
            elif action < 0.7:
                mutated.insert(pos, rng.choice(junk))
            else:
                del mutated[pos]
        text = " ".join(mutated)
        try:
            parse_model(text)
        except (AdlSyntaxError, AdlValidationError):
            pass  # rejected cleanly


def test_print_model_requires_nothing_but_reparses(http_model, http_ops):
    # a model transformed by the engine still prints and reparses
    evolved = apply_evolution(http_ops["AddFileServer"], http_model).result
    assert parse_model(print_model(evolved)) == evolved


def test_bad_integer_literals_are_positioned_syntax_errors():
    # '²' lexes as an integer (str.isdigit) that int() refuses; a literal
    # past int()'s digit limit is refused too
    with pytest.raises(AdlSyntaxError) as err:
        parse_model("model M { component C { class K\n  param p : int = ² } }")
    assert (err.value.line, err.value.col) == (2, 19)
    assert "invalid integer literal '²'" in str(err.value)
    with pytest.raises(AdlSyntaxError) as err:
        parse_model("model M { component C { class K param p : int = -" + "9" * 5000 + " } }")
    assert (err.value.line, err.value.col) == (1, 50)
    with pytest.raises(AdlSyntaxError) as err:
        parse_recipes("op O {\n  set C.p := 1 + ²³ }")
    assert (err.value.line, err.value.col) == (2, 18)


def test_print_model_spells_integers_past_the_digit_limit():
    big = 2 ** 2 ** 14  # 4,933 digits; str() refuses more than 4,300
    m = ComponentModel("M", {"A": Component("A", "C", params={"x": Param("int", -big)})})
    assert f"param x : int = -{Decimal(big)}\n" in print_model(m)
    assert model_digester()(m) == model_digest(m)


def test_error_messages_show_a_string_token_by_its_value():
    with pytest.raises(AdlSyntaxError, match=r"""^1:7: expected model name, found 'M"'$"""):
        parse_model('model "M\\"" { }')
    with pytest.raises(AdlSyntaxError, match=r"^1:13: expected component name, "
                                             r"found 'end of input'$"):
        parse_recipes('op O { stop "" }')


def test_a_parameter_of_one_class_refuses_a_literal_of_another():
    text = "model M { component A { class K param s : string = 5 } }"
    with pytest.raises(AdlSyntaxError) as err:
        parse_model(text)
    assert str(err.value) == "1:52: expected string literal"
    assert (err.value.line, err.value.col) == (1, text.index("5") + 1)


def _calls(monkeypatch, name):
    """The argument tuples of every call of ``adl``'s function ``name`` from now on."""
    calls = []
    plain = getattr(adl, name)
    monkeypatch.setattr(adl, name, lambda *args: calls.append(args) or plain(*args))
    return calls


def _recorded_run(a, ops, c0):
    """The run's configurations from the initial one on, each with what a
    check's run records for it: the initial model itself, then the change
    from the configuration before."""
    run = checker._Run(a, ops, c0)
    for pos, c in run.configurations(count()):
        yield c, c if pos == 0 else composed([run.steps[pos][2]])


def _change(before, after):
    """The :class:`Change` from model ``before`` to ``after``, which holds
    no delegation ``before`` lacks."""
    assert after.delegations <= before.delegations
    then, now = before.components, after.components
    return Change({cid: now.get(cid) for cid in then.keys() | now.keys()
                   if then.get(cid) is not now.get(cid)},
                  {b: b in after.bindings for b in before.bindings ^ after.bindings},
                  before.delegations - after.delegations)


def _fed(models):
    """One digester's digests of ``models``: the first as a model, each
    later one as the change from the one before."""
    digest = model_digester()
    return [digest(m if i == 0 else _change(models[i - 1], m)) for i, m in enumerate(models)]


def test_print_model_formats_each_distinct_body_once(monkeypatch):
    # A1-A3 are declared with one body and B1-B2 with another, so each group
    # shares its field objects; C has a body of its own
    text = ("model M {\n"
            + "".join(f"  component A{i} {{ class K param p : int = 1 input i : T }}\n"
                      for i in (1, 2, 3))
            + "".join(f"  component B{i} {{ class K param p : int = 2 }}\n" for i in (1, 2))
            + "  component C { class K param p : int = 1 input i : T state stopped }\n}\n")
    m = parse_model(text)
    whole = "".join(adl._component_text(m.components[cid]) for cid in sorted(m.components))
    formatted = _calls(monkeypatch, "_component_text")
    printed = print_model(m)
    assert [c.id for c, in formatted] == ["A1", "B1", "C"]
    assert whole in printed and parse_model(printed) == m
    # A2 stopped keeps A1's field objects, but not its body
    stopped = ComponentModel("M", {**m.components, "A2": m.components["A2"].evolve(state="stopped")})
    formatted.clear()
    assert "  component A2 {\n    class K\n    param p : int = 1\n    input i : T\n" \
           "    state stopped\n  }\n" in print_model(stopped)
    assert [c.id for c, in formatted] == ["A1", "A2", "B1", "C"]


def test_digester_formats_each_shared_component_once(http_model, http_ops, monkeypatch):
    # each distinct body once in the first model, then each id a step changed once
    a = build_automaton(parse_path("run (RemoveCacheHandler AddCacheHandler MemorySizeUp "
                                   "run AddFileServer DurationValidityUp DeleteFileServer)+"))
    # the HTTP model and two spare components declared with one body
    spares = "".join(f"  component Spare{i} {{ class Spare param x : int = 1 }}\n" for i in (1, 2))
    c0 = parse_model(print_model(http_model)[:-2] + spares + "}\n")
    formatted = _calls(monkeypatch, "_component_text")
    digest, models, digests = model_digester(), [], []
    for c, recorded in islice(_recorded_run(a, http_ops, c0), 30):
        formatted.clear()
        digests.append(digest(recorded))
        if not models:
            assert len(formatted) == len(c0.components) - 1  # the spares share a body
        else:
            last = models[-1].components
            changed = {cid for cid, comp in c.components.items() if last.get(cid) is not comp}
            assert sorted(comp.id for comp, in formatted) == sorted(changed)
        models.append(c)
    monkeypatch.undo()
    assert digests == [model_digest(m) for m in models]


def _generated_runs():
    """(automaton, operations, initial model, run length) of generated runs."""
    rng = random.Random(41)
    for _ in range(60):
        m = generators.gen_model(rng)
        rs = generators.gen_recipes(rng, m)
        a = build_automaton(generators.gen_path(rng, sorted(rs.recipes)))
        yield a, rs.operation_table(), m, 2 * a.n_states + 3 if a.has_cycle else a.n_states


def test_digester_fed_the_changes_of_generated_runs():
    # each step is patched at the ids and bindings its change names
    for a, ops, m, n in _generated_runs():
        digest, models, digests = model_digester(), [], []
        for c, recorded in islice(_recorded_run(a, ops, m), n):
            models.append(c)
            digests.append(digest(recorded))
        assert digests == [model_digest(c) for c in models]


def test_two_digesters_on_one_generated_run():
    # each keeps the parts of the last configuration it took: one takes
    # every step's change, the other the changes of every two steps composed
    for a, ops, m, n in _generated_runs():
        run = checker._Run(a, ops, m)
        every, other = model_digester(), model_digester()
        models, digests = [], []
        for pos, c in run.configurations(range(n)):
            models.append(c)
            if pos == 0:
                digests.append((every(c), other(c)))
            else:
                logs = [log for _label, _q, log, _sum in run.steps[pos - 1 + pos % 2:pos + 1]]
                digests.append((every(composed(logs[-1:])),
                                other(composed(logs)) if pos % 2 == 0 else None))
        assert digests == [(model_digest(c), model_digest(c) if pos % 2 == 0 else None)
                           for pos, c in enumerate(models)]


def test_a_simulated_run_keeps_no_model_but_the_last(http_model, http_ops):
    a = build_automaton(parse_path("(RemoveCacheHandler AddCacheHandler AddFileServer "
                                   "DeleteFileServer MemorySizeUp)+"))
    c0, refs, digests = parse_model(print_model(http_model)), [], []
    gc.disable()  # freed by reference counts alone
    try:
        for step, c in checker.run_steps(a, http_ops, c0, 40):
            digests.append(step.digest)
            refs.append(weakref.ref(c))
        del c
        assert [r() is None for r in refs[1:-1]] == [True] * (len(refs) - 2)
    finally:
        gc.enable()
    assert digests == [model_digest(m) for m in
                       chain([c0], (c for _label, _q, c in islice(run_path(a, http_ops, 0, c0),
                                                                  39)))]


def test_a_simulated_run_takes_flat_memory_on_a_long_cycle(http_model, http_ops):
    # each step's change is digested as it is taken, and neither the models
    # nor the changes are kept, however many laps the run takes
    a = build_automaton(parse_path("(RemoveCacheHandler AddCacheHandler)+"))

    def peak(n):
        c0 = parse_model(print_model(http_model))
        tracemalloc.start()
        try:
            for _step, _c in checker.run_steps(a, http_ops, c0, n):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(40)  # a warm-up: what the first run caches is not the run's
    short, long = peak(40), peak(4000)
    assert long < 1.5 * short, (short, long)


def test_digester_on_equal_but_distinct_components():
    def model(value):
        return ComponentModel("M", {"A": Component("A", "K", params={"p": Param("int", value)}),
                                    "B": Component("B", "K")})
    first = model(1)
    copy = ComponentModel("M", {**first.components, "A": model(1).components["A"]})
    changed = ComponentModel("M", {**first.components, "A": model(2).components["A"]})
    assert copy == first and copy.components["A"] is not first.components["A"]
    models = [first, copy, changed, first]
    assert _fed(models) == [model_digest(m) for m in models]


def test_digester_patches_the_binding_lines_of_the_last_configuration():
    rng = random.Random(12)
    pool = [Binding(f"C{i}", "o", f"C{j}", p) for i in range(4) for j in range(4)
            for p in ("a", "b")]
    components = {f"C{i}": Component(f"C{i}", "K") for i in range(4)}
    sets = [frozenset()]
    for _ in range(150):
        roll = rng.random()
        if roll < 0.2:
            sets.append(sets[-1])  # no binding changed
        elif roll < 0.3:
            sets.append(frozenset(sets[rng.randrange(len(sets))]))  # back to an earlier set
        else:
            changed = set(sets[-1]) ^ set(rng.sample(pool, rng.randint(1, 4)))
            sets.append(frozenset(changed))
    models = [ComponentModel("M", components, bindings) for bindings in sets]
    digest = model_digester()
    digests = [digest(models[0])]
    for before, after in zip(sets, sets[1:]):
        # a change may name a binding that is where it was
        named = set(before ^ after) | set(rng.sample(pool, 2))
        digests.append(digest(Change({}, {b: b in after for b in named}, frozenset())))
    assert digests == [model_digest(m) for m in models]


def test_digester_keeps_a_freed_components_id_from_being_reused():
    # each step puts a new component, and the one it replaced is dropped
    # by the caller, so it could be freed and its address (its id) reused
    digest = model_digester()
    digests = [digest(ComponentModel("M", {"A": Component("A", "K")}))]
    for value in range(200):
        put = Component("A", "K", params={"p": Param("int", value % 2)})
        digests.append(digest(Change({"A": put}, {}, frozenset())))
        del put
    assert digests[1:] == [model_digest(ComponentModel("M", {"A": Component(
        "A", "K", params={"p": Param("int", value % 2)})})) for value in range(200)]


def test_digester_patches_ids_that_sort_first_last_and_in_between():
    comps = {cid: Component(cid, "K") for cid in ("M2", "M4", "M6", "M8", "N1", "N3")}
    models = [ComponentModel("M", comps)]
    # each step toggles a few ids: those absent come in, those present go
    for toggled in [("A",), ("Z",), ("M5",), ("A", "Z"), ("M2", "M3"), ("M4",), ("M8", "N3"),
                    ("M1", "M7", "Y"), ("A", "M9", "Z"), ("M6", "N1", "N2"), ("A", "B")]:
        comps = dict(comps)
        for cid in toggled:
            if cid in comps:
                del comps[cid]
            else:
                comps[cid] = Component(cid, f"K{cid}", state="stopped")
        models.append(ComponentModel("M", comps))
    assert _fed(models) == [model_digest(m) for m in models]


def test_digester_on_the_same_configuration_twice_in_a_row(http_model, http_ops):
    removed = apply_evolution(http_ops["RemoveCacheHandler"], http_model).result
    models = [http_model, http_model, removed, removed, http_model, http_model]
    assert _fed(models) == [model_digest(m) for m in models]


def test_digester_on_a_composite_that_loses_a_child(http_model):
    models = [http_model]
    for child in ("CacheHandler", "RequestReceiver", "FileServer1"):
        models.append(apply_primitive(RemoveComponent(child), models[-1]))
    assert models[-1].components["HttpServer"].contains == {"RequestHandler",
                                                             "RequestDispatcher"}
    assert _fed(models) == [model_digest(m) for m in models]


def test_digester_formats_an_equal_but_distinct_component_where_it_replaces_one(monkeypatch):
    a, copy = Component("A", "K"), Component("A", "K")
    b = Component("B", a.cls, a.params, a.inputs, a.outputs)  # a's body, shared
    first = ComponentModel("M", {"A": a, "B": b})
    second = ComponentModel("M", {"A": copy, "B": b})
    assert first == second
    expected = model_digest(first)
    formatted = _calls(monkeypatch, "_component_text")
    digest = model_digester()
    # a change may name an id whose component it leaves as it was
    assert [digest(first), digest(Change({"A": copy}, {}, frozenset())),
            digest(Change({"A": copy, "B": b}, {}, frozenset()))] == [expected] * 3
    # the shared body once in the first model, then the one object that changed
    assert [id(c) for c, in formatted] == [id(a), id(copy)]
    assert _fed([first, second, second]) == [expected] * 3


def _deep(expr: str) -> str:
    return "op Deep { set Cache.size := " + expr + " }"


# integer expressions whose syntax tree is n levels high: a chain of n - 1
# operators, and n - 1 negations of a parameter (those of a literal fold)
NESTED_INT = {
    "sum": lambda n: " + ".join(["1"] * n),
    "minus": lambda n: "-" * (n - 1) + "param(Cache.size)",
}


@pytest.mark.parametrize("shape", sorted(NESTED_INT))
def test_integer_expressions_nest_at_most_max_nesting_levels(shape):
    expr = NESTED_INT[shape]
    model = parse_model("model M { component Cache { class C param size : int = 1 } }")
    at_limit = parse_recipes(_deep(expr(MAX_NESTING)))
    size = apply_evolution(at_limit.operation_table()["Deep"], model).result \
        .components["Cache"].params["size"].value
    assert size == (MAX_NESTING if shape == "sum" else (-1) ** (MAX_NESTING - 1))
    assert parse_recipes(print_recipes(at_limit)) == at_limit
    with pytest.raises(AdlSyntaxError, match=f"nested more than {MAX_NESTING} levels deep$") \
            as err:
        parse_recipes(_deep(expr(MAX_NESTING + 1)))
    # reported where the expression that got too high ends
    assert (err.value.line, err.value.col) == \
        (1, len(_deep(expr(MAX_NESTING + 1))))


def test_integer_brackets_nest_at_most_max_nesting_deep():
    def expr(n):
        return "(" * n + "-1" + ")" * n
    assert parse_recipes(_deep(expr(MAX_NESTING))) == parse_recipes(_deep("-1"))
    with pytest.raises(AdlSyntaxError, match=f"^1:{29 + MAX_NESTING}: brackets nested "
                                             f"more than {MAX_NESTING} deep$"):
        parse_recipes(_deep(expr(MAX_NESTING + 1)))


@pytest.mark.parametrize("expr", [" + ".join(["1"] * 5000), "(" * 5000 + "1" + ")" * 5000])
def test_deep_integer_expressions_are_syntax_errors_not_recursion_errors(expr):
    with pytest.raises(AdlSyntaxError, match="nested more than"):
        parse_recipes(_deep(expr))


# --- digests that resume from the first changed part ---------------------------

def _chain_text(n: int, name: str = "Chain") -> str:
    """A model of ``n`` components C0000.. chained by bindings: its text has
    2n + 1 parts, component i at part i + 1 and the bindings after them."""
    ids = [f"C{i:04d}" for i in range(n)]
    body = "class K param p : int = 0 input i : T output o : T"
    return (f"model {name} {{\n"
            + "".join(f"  component {cid} {{ {body} }}\n" for cid in ids)
            + "".join(f"  bind {a}.o -> {b}.i\n" for a, b in zip(ids, ids[1:]))
            + "}\n")


def _parts(m):
    """The parts of ``m``'s text, as :func:`adl._model_parts` splits it."""
    comps = m.components
    return adl._model_parts(m, adl._component_texts([comps[cid] for cid in sorted(comps)]),
                            adl._binding_lines(m.bindings)[1])


def _touch(*cids: str) -> str:
    """Recipes: ``T<cid>`` increments ``cid``'s parameter."""
    return "".join(f"op T{cid} {{ set {cid}.p := param({cid}.p) + 1 }}\n" for cid in cids)


def _assert_digests_are_model_digests(c0, ops_text, path_text, n):
    """The run's first ``n`` configurations, digested from the changes a
    check's run records, give :func:`model_digest`'s digests."""
    ops = parse_recipes(ops_text).operation_table()
    a = build_automaton(parse_path(path_text))
    digest, run, digests = model_digester(), [], []
    for c, recorded in islice(_recorded_run(a, ops, c0), n):
        run.append(c)
        digests.append(digest(recorded))
    assert digests == [model_digest(m) for m in run]
    return run


def test_digests_that_first_change_the_first_component():
    c0 = parse_model(_chain_text(3 * adl._BLOCK))
    _assert_digests_are_model_digests(c0, _touch("C0000"), "(TC0000)+", 6)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_digests_that_first_change_a_part_at_or_beside_a_block_boundary(offset):
    # component i is part i + 1, so the part at the boundary is component _BLOCK - 1
    n = 3 * adl._BLOCK
    c0 = parse_model(_chain_text(n))
    assert len(_parts(c0)) == 2 * n + 1
    cids = [f"C{i:04d}" for i in (adl._BLOCK - 1 + offset, 2 * adl._BLOCK - 1 + offset)]
    # one boundary, then the next, then both: each step resumes from another state
    path = " ".join(f"T{cid}" for cid in cids)
    _assert_digests_are_model_digests(c0, _touch(*cids), f"({path})+", 8)


@pytest.mark.parametrize("n", [2 * adl._BLOCK - 3, 2 * adl._BLOCK - 2, 2 * adl._BLOCK - 1])
def test_digests_of_a_text_of_whole_blocks_and_of_the_same_model_twice(n):
    # n components and no binding: n + 2 parts, two whole blocks for the second n
    comps = {f"C{i:04d}": Component(f"C{i:04d}", "K") for i in range(n)}
    first = ComponentModel("M", comps)
    last = ComponentModel("M", {**comps, f"C{n - 1:04d}": Component(f"C{n - 1:04d}", "L")})
    assert len(_parts(first)) == n + 2
    models = [first, first, last, last, first]
    assert _fed(models) == [model_digest(m) for m in models]


def test_digests_that_change_only_the_last_binding_line():
    n = 3 * adl._BLOCK
    last = f"C{n - 2:04d}.o -> C{n - 1:04d}.i"
    c0 = parse_model(_chain_text(n))
    ops = f"op Cut {{ unbind {last} }}\nop Make {{ bind {last} }}\n"
    models = _assert_digests_are_model_digests(c0, ops, "(Cut Make)+", 6)
    assert models[1].components is c0.components and models[1].bindings != c0.bindings


def test_digests_that_change_only_a_delegation():
    # delegations enough to fill two blocks, so a change to the first of
    # them lies blocks before the end of the text
    n = 2 * adl._BLOCK
    c0 = parse_model(_chain_text(n)[:-2]
                     + "  composite P { class Q "
                     + "".join(f"input i{j:04d} : T " for j in range(n))
                     + "".join(f"contains C{j:04d} " for j in range(n)) + "}\n"
                     + "".join(f"  delegate P.i{j:04d} -> C{j:04d}.i\n" for j in range(n))
                     + "}\n")
    ds = sorted(c0.delegations, key=lambda d: d.composite_port)
    # the component dict and the binding set are the same objects: only the
    # delegations differ, and none comes back
    models = [ComponentModel(c0.name, c0.components, c0.bindings, frozenset(kept))
              for kept in (ds, ds[1:], ds[1:], ds[1:-1], ds[2:-1], ds[2:2], ds[2:2])]
    assert _fed(models) == [model_digest(m) for m in models]
    assert len(set(map(model_digest, models))) == 5


def test_digests_of_a_model_smaller_than_one_block():
    n = adl._BLOCK // 2 - 1  # 2n + 1 parts: one block less one part
    c0 = parse_model(_chain_text(n))
    _assert_digests_are_model_digests(c0, _touch("C0000", f"C{n - 1:04d}"),
                                      f"(TC0000 TC{n - 1:04d})+", 6)


class _Sha256Spy:
    """``hashlib.sha256`` that counts the bytes it is handed and its copies."""

    hashed = copies = 0

    def __init__(self, data=b"", *, state=None):
        self.state = _SHA256() if state is None else state
        self.update(data)

    def update(self, data):
        _Sha256Spy.hashed += len(data)
        self.state.update(data)

    def copy(self):
        _Sha256Spy.copies += 1
        return _Sha256Spy(state=self.state.copy())

    def hexdigest(self):
        return self.state.hexdigest()


_SHA256 = hashlib.sha256


def _spy_sha256(monkeypatch):
    """Counts from zero, until ``monkeypatch`` is undone; a digester made
    from now on keeps spied hash states."""
    monkeypatch.setattr(hashlib, "sha256", _Sha256Spy)
    monkeypatch.setattr(_Sha256Spy, "hashed", 0)
    monkeypatch.setattr(_Sha256Spy, "copies", 0)


def test_a_step_that_changes_the_last_component_hashes_from_the_block_before_it(monkeypatch):
    n = 2000
    last = f"C{n - 1:04d}"
    ops = parse_recipes(_touch(last)).operation_table()
    run = _recorded_run(build_automaton(parse_path(f"(T{last})+")), ops,
                        parse_model(_chain_text(n)))
    _spy_sha256(monkeypatch)
    digest = model_digester()
    c0, _ = next(run)
    first = digest(c0)
    c1, change = next(run)
    _Sha256Spy.hashed = 0
    second = digest(change)
    hashed = _Sha256Spy.hashed
    monkeypatch.undo()
    parts = _parts(c1)
    assert parts[n].startswith(f"  component {last} ")
    assert 0 < hashed <= len("".join(parts[n - adl._BLOCK:]).encode())
    # the binding lines after it are hashed again, but not the texts before it
    assert hashed < len("".join(parts).encode()) // 2
    assert (first, second) == (model_digest(c0), model_digest(c1)) and first != second


def test_a_model_smaller_than_one_block_makes_no_copy_of_a_hash_state(monkeypatch):
    n = adl._BLOCK // 2  # 2n + 1 parts: one block and one part
    ops = parse_recipes(_touch("C0000")).operation_table()
    a = build_automaton(parse_path("(TC0000)+"))

    def digested(k):
        """The first configurations of a run from a chain of ``k``, each
        with its digest, taken from the change the run records for it."""
        digest = model_digester()
        for m, recorded in islice(_recorded_run(a, ops, parse_model(_chain_text(k))), 4):
            yield m, digest(recorded)

    _spy_sha256(monkeypatch)
    small = list(digested(n - 1))
    assert _Sha256Spy.copies == 0
    large = list(digested(n))
    assert _Sha256Spy.copies > 0
    monkeypatch.undo()
    assert [d for _m, d in small + large] == [model_digest(m) for m, _d in small + large]
