import random

import pytest

from reconfcheck import (
    AdlSyntaxError,
    AdlValidationError,
    apply_evolution,
    parse_model,
    parse_recipes,
    print_model,
    validate_model,
)
from reconfcheck.adl import model_digest, print_recipes
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
    with pytest.raises(AdlValidationError) as err:
        parse_model(text)
    assert any("parameters" in v for v in err.value.violations)
    # validation can be deferred
    m = parse_model(text, validate=False)
    assert len(validate_model(m)) == 1


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


def test_error_messages_show_a_string_token_by_its_value():
    with pytest.raises(AdlSyntaxError, match=r"""^1:7: expected model name, found 'M"'$"""):
        parse_model('model "M\\"" { }')
    with pytest.raises(AdlSyntaxError, match=r"^1:13: expected component name, "
                                             r"found 'end of input'$"):
        parse_recipes('op O { stop "" }')
