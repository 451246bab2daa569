import random
from decimal import Decimal

import pytest

from reconfcheck import (
    AdlSyntaxError,
    AdlValidationError,
    Binding,
    Component,
    ComponentModel,
    Param,
    RecipeSet,
    apply_evolution,
    build_automaton,
    check,
    parse_formula,
    parse_model,
    parse_path,
    parse_recipes,
    print_model,
    validate_model,
)
from reconfcheck import adl
from reconfcheck.adl import MAX_NESTING, model_digest, model_digester, print_recipes
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


def _run(a, ops, c0, n):
    """The first ``n`` configurations of the run from the initial state."""
    q, c, out = 0, c0, [c0]
    for _ in range(n - 1):
        label, q = a.succ(q)
        c = apply_evolution(ops[label], c).result
        out.append(c)
    return out


def test_digester_formats_each_shared_component_once(http_model, http_ops, monkeypatch):
    a = build_automaton(parse_path("run (RemoveCacheHandler AddCacheHandler MemorySizeUp "
                                   "run AddFileServer DurationValidityUp DeleteFileServer)+"))
    models = _run(a, http_ops, http_model, 30)
    expected = [model_digest(m) for m in models]
    objects = {id(c) for m in models for c in m.components.values()}
    assert len(objects) < sum(len(m.components) for m in models) / 2  # mostly shared
    formatted = []
    plain = adl._component_text
    monkeypatch.setattr(adl, "_component_text", lambda c: formatted.append(c) or plain(c))
    digest = model_digester()
    assert [digest(m) for m in models] == expected
    assert len(formatted) == len(objects)


def test_digester_on_generated_runs():
    rng = random.Random(41)
    for _ in range(60):
        m = generators.gen_model(rng)
        rs = generators.gen_recipes(rng, m)
        a = build_automaton(generators.gen_path(rng, sorted(rs.recipes)))
        models = _run(a, rs.operation_table(), m, 2 * a.n_states + 3) if a.has_cycle \
            else _run(a, rs.operation_table(), m, a.n_states)
        digest = model_digester()
        assert [digest(c) for c in models] == [model_digest(c) for c in models]


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
