import gc
import hashlib
import random
import weakref
from decimal import Decimal
from itertools import chain, islice

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
from reconfcheck import adl
from reconfcheck.adl import MAX_NESTING, model_digest, model_digester, print_recipes
from reconfcheck.reconfig import BinOp, IntLiteral, ParamRef, SetParam, Unfolding

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


def _run(a, ops, c0, n):
    """The first ``n`` configurations of the run from the initial state."""
    q, c, out = 0, c0, [c0]
    for _ in range(n - 1):
        label, q = a.succ(q)
        c = apply_evolution(ops[label], c).result
        out.append(c)
    return out


def _calls(monkeypatch, name):
    """The argument tuples of every call of ``adl``'s function ``name`` from now on."""
    calls = []
    plain = getattr(adl, name)
    monkeypatch.setattr(adl, name, lambda *args: calls.append(args) or plain(*args))
    return calls


def _run_models(a, ops, c0):
    """The run's configurations from the initial one on, each built when asked for."""
    return chain([c0], (c for _label, _q, c in run_path(a, ops, 0, c0)))


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
    # each distinct body once in the first model, then each id the run logged once
    a = build_automaton(parse_path("run (RemoveCacheHandler AddCacheHandler MemorySizeUp "
                                   "run AddFileServer DurationValidityUp DeleteFileServer)+"))
    # the HTTP model and two spare components declared with one body
    spares = "".join(f"  component Spare{i} {{ class Spare param x : int = 1 }}\n" for i in (1, 2))
    c0 = parse_model(print_model(http_model)[:-2] + spares + "}\n")
    formatted, scans = _calls(monkeypatch, "_component_text"), _calls(monkeypatch, "compress")
    digest, models, digests = model_digester(), [], []
    for c in islice(_run_models(a, http_ops, c0), 30):
        formatted.clear()
        digests.append(digest(c))
        if not models:
            assert len(formatted) == len(c0.components) - 1  # the spares share a body
        else:
            last = models[-1].components
            changed = {cid for cid, comp in c.components.items() if last.get(cid) is not comp}
            assert sorted(comp.id for comp, in formatted) == sorted(changed)
        models.append(c)
    # no step is compared by identity: the first, `run`, changes nothing, and
    # the run hands the initial model its index before it takes that step, so
    # every later step reads the run's log
    assert scans == []
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


def test_digester_on_generated_runs():
    # fed afterwards: the models the run moved past hold no index, so each
    # step is compared by identity
    for a, ops, m, n in _generated_runs():
        models = list(islice(_run_models(a, ops, m), n))
        digest = model_digester()
        assert [digest(c) for c in models] == [model_digest(c) for c in models]


def test_digester_fed_during_generated_runs():
    # each step is patched at the ids the run's index logged
    for a, ops, m, n in _generated_runs():
        digest, models, digests = model_digester(), [], []
        for c in islice(_run_models(a, ops, m), n):
            models.append(c)
            digests.append(digest(c))
        assert digests == [model_digest(c) for c in models]


def test_two_digesters_on_one_generated_run():
    # each opens its own log on the one index, so neither reads a log the
    # other opened: one digests every step, the other every other step
    for a, ops, m, n in _generated_runs():
        every, other = model_digester(), model_digester()
        models, digests = [], []
        for i, c in enumerate(islice(_run_models(a, ops, m), n)):
            models.append(c)
            digests.append((every(c), other(c) if i % 2 else None))
        assert digests == [(model_digest(c), model_digest(c) if i % 2 else None)
                           for i, c in enumerate(models)]


def test_digester_keeps_no_model_but_the_last(http_model, http_ops):
    a = build_automaton(parse_path("(RemoveCacheHandler AddCacheHandler AddFileServer "
                                   "DeleteFileServer MemorySizeUp)+"))
    digest, refs = model_digester(), []
    gc.disable()  # freed by reference counts alone
    try:
        for c in islice(_run_models(a, http_ops, parse_model(print_model(http_model))), 40):
            digest(c)
            refs.append(weakref.ref(c))
        del c
        assert [r() is None for r in refs[:-1]] == [True] * (len(refs) - 1)
    finally:
        gc.enable()


def test_digester_on_equal_but_distinct_components():
    def model(value):
        return ComponentModel("M", {"A": Component("A", "K", params={"p": Param("int", value)}),
                                    "B": Component("B", "K")})
    first = model(1)
    copy = ComponentModel("M", {**first.components, "A": model(1).components["A"]})
    changed = ComponentModel("M", {**first.components, "A": model(2).components["A"]})
    assert copy == first and copy.components["A"] is not first.components["A"]
    digest = model_digester()
    assert [digest(m) for m in (first, copy, changed, first)] == \
        [model_digest(m) for m in (first, copy, changed, first)]


def test_digester_patches_the_binding_lines_of_the_last_model():
    rng = random.Random(12)
    pool = [Binding(f"C{i}", "o", f"C{j}", p) for i in range(4) for j in range(4)
            for p in ("a", "b")]
    components = {f"C{i}": Component(f"C{i}", "K") for i in range(4)}
    sets = [frozenset()]
    for _ in range(150):
        roll = rng.random()
        if roll < 0.2:
            sets.append(sets[-1])  # the same set object
        elif roll < 0.3:
            sets.append(frozenset(sets[rng.randrange(len(sets))]))  # an equal copy
        else:
            changed = set(sets[-1]) ^ set(rng.sample(pool, rng.randint(1, 4)))
            sets.append(frozenset(changed))
    models = [ComponentModel("M", components, bindings) for bindings in sets]
    digest = model_digester()
    assert [digest(m) for m in models] == [model_digest(m) for m in models]


def test_digester_keeps_a_freed_components_id_from_being_reused():
    # each model, and with it its one component, is freed once digested, so
    # the next component may be allocated at the same address (the same id)
    def fresh_models():
        for value in range(200):
            yield ComponentModel("M", {"A": Component("A", "K",
                                                      params={"p": Param("int", value)})})
    digest = model_digester()
    assert [digest(m) for m in fresh_models()] == [model_digest(m) for m in fresh_models()]


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
    digest = model_digester()
    assert [digest(m) for m in models] == [model_digest(m) for m in models]


def test_digester_on_the_same_model_twice_in_a_row(http_model, http_ops):
    removed = apply_evolution(http_ops["RemoveCacheHandler"], http_model).result
    models = [http_model, http_model, removed, removed, http_model, http_model]
    digest = model_digester()
    assert [digest(m) for m in models] == [model_digest(m) for m in models]


def test_digester_on_unrelated_models_interleaved_with_a_run(http_model, http_ops):
    a = build_automaton(parse_path("run (RemoveCacheHandler AddCacheHandler "
                                   "AddFileServer DeleteFileServer)+"))
    run = _run(a, http_ops, http_model, 12)
    rng = random.Random(7)
    # another model, one with the run's ids but other objects, and an empty one
    others = [generators.gen_model(rng),
              ComponentModel("M", {cid: Component(cid, "K") for cid in http_model.components}),
              ComponentModel("E")]
    models = [m for i, c in enumerate(run) for m in (c, others[i % 3])]
    digest = model_digester()
    assert [digest(m) for m in models] == [model_digest(m) for m in models]
    # fed during the run: a run model that follows another model is compared
    # by identity, as the run's log holds what changed since the run model before
    digest, models, digests = model_digester(), [], []
    for i, c in enumerate(islice(_run_models(a, http_ops, http_model), 12)):
        for m in (c, others[i % 3]):
            models.append(m)
            digests.append(digest(m))
    assert digests == [model_digest(m) for m in models]


def test_digester_on_a_composite_that_loses_a_child(http_model):
    models = [http_model]
    for child in ("CacheHandler", "RequestReceiver", "FileServer1"):
        models.append(apply_primitive(RemoveComponent(child), models[-1]))
    assert models[-1].components["HttpServer"].contains == {"RequestHandler",
                                                             "RequestDispatcher"}
    digest = model_digester()
    assert [digest(m) for m in models] == [model_digest(m) for m in models]


def test_digester_formats_an_equal_but_distinct_component_where_it_replaces_one(monkeypatch):
    a, copy = Component("A", "K"), Component("A", "K")
    b = Component("B", a.cls, a.params, a.inputs, a.outputs)  # a's body, shared
    first = ComponentModel("M", {"A": a, "B": b})
    second = ComponentModel("M", {"A": copy, "B": b})
    third = ComponentModel("M", dict(second.components))  # an equal dict, the same objects
    assert first == second == third
    expected = model_digest(first)
    formatted = _calls(monkeypatch, "_component_text")
    digest = model_digester()
    assert [digest(m) for m in (first, second, second, third)] == [expected] * 4
    # the shared body once in the first model, then the one object that changed
    assert [id(c) for c, in formatted] == [id(a), id(copy)]


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


def _assert_digests_are_model_digests(c0, ops_text, path_text, n, others=()):
    """The run's first ``n`` configurations, each followed by the ``others``,
    digested during ``run_path`` (patched by the log) and after it (patched
    by an identity scan), give :func:`model_digest`'s digests."""
    ops = parse_recipes(ops_text).operation_table()
    a = build_automaton(parse_path(path_text))
    digest, models, digests = model_digester(), [], []
    for c in islice(_run_models(a, ops, c0), n):
        for m in (c, *others):
            models.append(m)
            digests.append(digest(m))
    expected = [model_digest(m) for m in models]
    assert digests == expected
    digest = model_digester()
    assert [digest(m) for m in models] == expected
    return models


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
    digest = model_digester()
    assert [digest(m) for m in models] == [model_digest(m) for m in models]


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
    # the component dict and the binding set are the same objects: only the delegations differ
    models = [ComponentModel(c0.name, c0.components, c0.bindings, frozenset(kept))
              for kept in (ds, ds[1:], ds, ds[:-1], ds[:1], ds, ds)]
    digest = model_digester()
    assert [digest(m) for m in models] == [model_digest(m) for m in models]
    assert len(set(map(model_digest, models))) == 4


def test_digests_of_a_run_interleaved_with_a_model_of_another_name():
    n = 3 * adl._BLOCK
    c0 = parse_model(_chain_text(n))
    other = parse_model(_chain_text(n, name="Other"))
    cids = [f"C{i:04d}" for i in (n - 1, 5)]
    _assert_digests_are_model_digests(c0, _touch(*cids), f"({' '.join(f'T{c}' for c in cids)})+",
                                      6, others=(other,))


def test_digests_of_a_model_smaller_than_one_block():
    n = adl._BLOCK // 2 - 1  # 2n + 1 parts: one block less one part
    c0 = parse_model(_chain_text(n))
    _assert_digests_are_model_digests(c0, _touch("C0000", f"C{n - 1:04d}"),
                                      f"(TC0000 TC{n - 1:04d})+", 6)


def test_digests_of_a_window_fed_after_its_run(monkeypatch):
    # a window's run releases its index when it is cut, so the digester scans
    # each model after the first by identity
    n = 3 * adl._BLOCK
    c0 = parse_model(_chain_text(n))
    ops = parse_recipes(_touch("C0000", f"C{n - 1:04d}")).operation_table()
    a = build_automaton(parse_path(f"(TC0000 TC{n - 1:04d})+"))
    models = [c for _q, _label, c in Unfolding(a, 0, c0, islice(run_path(a, ops, 0, c0), 9))]
    assert len(models) == 10 and all(m._index is None for m in models)
    scans = _calls(monkeypatch, "compress")
    digest = model_digester()
    assert [digest(m) for m in models] == [model_digest(m) for m in models]
    assert len(scans) == len(models) - 1


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


@pytest.mark.parametrize("during_run", [True, False])
def test_a_step_that_changes_the_last_component_hashes_from_the_block_before_it(
        monkeypatch, during_run):
    n = 2000
    last = f"C{n - 1:04d}"
    ops = parse_recipes(_touch(last)).operation_table()
    run = _run_models(build_automaton(parse_path(f"(T{last})+")), ops,
                      parse_model(_chain_text(n)))
    _spy_sha256(monkeypatch)
    digest = model_digester()
    c0 = next(run)
    first = digest(c0)
    c1 = next(run)
    if not during_run:  # the same objects in another dict, which no index comes with
        c1 = ComponentModel(c1.name, dict(c1.components), c1.bindings, c1.delegations)
    _Sha256Spy.hashed = 0
    second = digest(c1)
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
        with its digest, taken as the run builds it."""
        digest = model_digester()
        for m in islice(_run_models(a, ops, parse_model(_chain_text(k))), 4):
            yield m, digest(m)

    _spy_sha256(monkeypatch)
    small = list(digested(n - 1))
    assert _Sha256Spy.copies == 0
    large = list(digested(n))
    assert _Sha256Spy.copies > 0
    monkeypatch.undo()
    assert [d for _m, d in small + large] == [model_digest(m) for m, _d in small + large]
