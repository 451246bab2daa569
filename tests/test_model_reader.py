"""The pattern reader of ``.arch`` models against the token parser.

``parse_model`` reads a well-formed ASCII model with ``adl._read_model``
and hands every other text to ``adl._parse_model_tokens``, which reports
every error.  The reader must accept every printed model and read it as
the token parser does.  On anything else it may decline (None), and then
``parse_model`` gives the token parser's model or its exact error.
"""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from reconfcheck import (RUN, IntLiteral, RemoveComponent, SetParam, Start, Stop, adl,
                         apply_evolution, erase_param_values, parse_model, print_model)
from reconfcheck.adl import _parse_model_tokens, _read_model

import generators
from conftest import SAMPLES
from test_lexer import PIECES

HTTP = (SAMPLES / "http.arch").read_text()

# keywords as names, a comment inside a negative literal, escaped strings
KEYWORDS = (
    "model model {\n"
    "  composite bind { class delegate input input : output contains class }\n"
    "  component class {\n"
    "    class component\n"
    "    param param : int = - // a comment\n 5\n"
    '    param string : string = "a\\"b\\\\c\\d // no comment"\n'
    "    param bool : bool = false param int : int = 007\n"
    "    input input : output output output : input state stopped\n"
    "  }\n"
    "  bind class.output -> class.input delegate bind.input -> class.input\n"
    "}")


def printed_model(seed: int) -> str:
    return print_model(generators.gen_model(random.Random(seed)))


def read(parse, text):
    """A parse's model, shown with its dict orders, or its error."""
    try:
        return "ok", repr(parse(text))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(st.integers(0, 2 ** 32 - 1))
def test_the_reader_reads_every_printed_model_as_the_token_parser_does(seed):
    m = generators.gen_model(random.Random(seed))
    text = print_model(m)
    assert _read_model(text) == _parse_model_tokens(text) == m
    assert repr(_read_model(text)) == repr(_parse_model_tokens(text))


# braces, quotes and slashes a comment or a string literal holds are not tokens
QUOTED = ('model M { // } { "\n'
          '  component C { class K param s : string = "} { // \\" \\\\" // "}\n'
          '  } bind C.o -> C.i // }\n'
          '}\n'
          '// } {\n')


@pytest.mark.parametrize("text", [HTTP, KEYWORDS, QUOTED, "model M { }", "model M{}"],
                         ids=["http", "keywords", "quoted", "empty", "empty, unspaced"])
def test_the_reader_reads_the_samples_as_the_token_parser_does(text):
    assert _read_model(text) is not None
    assert read(_read_model, text) == read(_parse_model_tokens, text)


# whitespace and comments, each of which keeps two tokens apart
SEPARATORS = (" ", "\n", "\t", "\r\n", "   ", "//\n", "// c } { \"\n", " // x\n\n//y\n ")


@st.composite
def respaced_models(draw):
    """A model's tokens with other whitespace and comments between them;
    with ``glued``, some tokens run into the next one."""
    base = draw(st.sampled_from([HTTP, KEYWORDS]) | st.integers(0, 2 ** 32 - 1).map(printed_model))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    glued = draw(st.booleans())
    seps = SEPARATORS + ("",) * (4 * glued)
    lexemes = adl._lexemes(base)[:-1]
    text = rng.choice(seps) + "".join(lex + rng.choice(seps) for lex in lexemes)
    return text, glued


@settings(max_examples=300)
@given(respaced_models())
def test_respaced_models_read_as_the_token_parser_reads_them(case):
    text, glued = case
    model = _read_model(text)
    if not glued:
        assert model is not None
    assert model is None or read(_read_model, text) == read(_parse_model_tokens, text)


ARCH_TEXTS = [HTTP, KEYWORDS, printed_model(3), printed_model(4)]


@st.composite
def mutated_models(draw):
    """A model text after a few character edits, as in test_lexer."""
    text = draw(st.sampled_from(ARCH_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(PIECES + ["component", "state", "class", "-", "}"]))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            text = text[:i] + piece + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + len(piece):]
        else:
            text = text[:i] + piece + text[i + 1:]
    return text


@settings(max_examples=500)
@given(mutated_models())
@example("model M { component C { class K } } }")
@example("model M { component C { class K state started state stopped } }")
def test_mutated_models_parse_as_the_token_parser_parses_them(text):
    assert read(parse_model, text) == read(_parse_model_tokens, text)


# texts the reader must leave to the token parser: its model, or its error
DECLINED = {
    "non-ASCII name": "model M { component Café { class K } }",
    "keyword run into a name": "model M { component C { classX } }",
    "duplicate id": "model M { component C { class K } component C { class K } }",
    "class twice": "model M { component C { class K class K } }",
    "no class": "model M { component C { state started } }",
    "state twice": "model M { component C { class K state started state started } }",
    "unknown state": "model M { component C { class K state running } }",
    "duplicate port": "model M { component C { class K input i : T input i : U } }",
    "duplicate parameter": "model M { component C { class K param p : int = 1 "
                           "param p : int = 2 } }",
    "duplicate contains": "model M { composite C { class K contains D contains D } }",
    "duplicate binding": "model M { bind A.o -> B.i bind A.o -> B.i }",
    "duplicate delegation": "model M { delegate A.o -> B.i delegate A.o -> B.i }",
    "string for an int": 'model M { component C { class K param p : int = "1" } }',
    "int for a bool": "model M { component C { class K param p : bool = 1 } }",
    "5,000-digit literal": "model M { component C { class K param p : int = "
                           + "9" * 5000 + " } }",
    "minus before an arrow": "model M { component C { class K param p : int = - > } }",
    "trailing input": "model M { } model N { }",
    "stray after the head": "model M { @ component C { class K } }",
    "stray between declarations": "model M { component C { class K } ; component D { class K } }",
    "stray before the closing brace": "model M { component C { class K } # }",
    "stray after the closing brace": "model M { component C { class K } } @",
    "closing brace in a comment": "model M { component C { class K } // }",
    "closing brace and a stray in a comment": "model M { component C { class K }\n// } @",
    "duplicate id among others": "model M { component C { class K } bind C.o -> D.i "
                                 "component D { class K } component C { class L } }",
    "duplicate binding among others": "model M { bind A.o -> B.i delegate A.o -> B.i "
                                      "bind A.p -> B.i bind A.o -> B.i }",
    "duplicate delegation among others": "model M { delegate A.o -> B.i bind A.o -> B.i "
                                         "delegate A.o -> B.j delegate A.o -> B.i }",
    "form feed between tokens": "model M {\f component C { class K } }",
    "vertical tab in a body": "model M { component C {\vclass K } }",
    "form feed after the closing brace": "model M { component C { class K } }\f",
}


@pytest.mark.parametrize("text", DECLINED.values(), ids=DECLINED)
def test_the_reader_leaves_other_texts_to_the_token_parser(text):
    assert _read_model(text) is None
    assert read(parse_model, text) == read(_parse_model_tokens, text)


def printed_bodies(text: str) -> list[tuple[str, str, str]]:
    """(keyword, id, body) of each component a printed model declares."""
    return re.findall(r"^  (component|composite) (\w+) \{(.*?)^  \}$", text, re.M | re.S)


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32 - 1))
def test_bodies_copied_under_fresh_ids_read_as_the_token_parser_reads_them(seed):
    """Each body again verbatim under the other keyword, then respaced, then
    with comments, which the reader reads as bodies of their own."""
    text = printed_model(seed)
    decls = printed_bodies(text)
    copies = []
    for keyword, cid, body in decls:
        other = "composite" if keyword == "component" else "component"
        respaced = " ".join(body.split())
        commented = body.replace("\n", " // a copy\n")
        copies += [f"{other} {cid}_a {{{body}}}", f"component {cid}_b {{ {respaced} }}",
                   f"{keyword} {cid}_c {{{commented}}}"]
    text = text[:text.rindex("}")] + "\n".join(copies) + "\n}\n"
    model = _read_model(text)
    assert model is not None
    assert model == _parse_model_tokens(text)
    assert repr(model) == repr(_parse_model_tokens(text))
    for _, cid, _ in decls:
        original, copy = model.components[cid], model.components[cid + "_a"]
        assert copy.params is original.params and copy.outputs is original.outputs


# texts that declare a body the reader declines twice, and a duplicate id
# whose body was read before: each ends in the token parser's error
REPEATED = {
    "class twice, declared twice": "model M { component A { class K class K } "
                                   "component B { class K class K } }",
    "no class, declared twice": "model M { component A { state started } "
                                "composite B { state started } }",
    "string for an int, declared twice": 'model M { component A { class K param p : int = "1" } '
                                         'component B { class K param p : int = "1" } }',
    "duplicate id with a body read before": "model M { component A { class K input i : T } "
                                            "component B { class K input i : T } "
                                            "component A { class K input i : T } }",
}


@pytest.mark.parametrize("text", REPEATED.values(), ids=REPEATED)
def test_a_repeated_body_the_reader_declines_ends_in_the_token_parsers_error(text):
    assert _read_model(text) is None
    outcome = read(parse_model, text)
    assert outcome[0] == "AdlSyntaxError" and outcome == read(_parse_model_tokens, text)


TWINS = ("model M {\n"
         "  component A { class W param n : int = 1 input i : T output o : T }\n"
         "  component B { class W param n : int = 1 input i : T output o : T }\n"
         "}\n")


def test_operations_on_a_component_leave_the_one_sharing_its_body_as_read():
    parsed = parse_model(TWINS)
    a, b = parsed.components["A"], parsed.components["B"]
    assert a.params is b.params and a.inputs is b.inputs and a.outputs is b.outputs
    expected = _parse_model_tokens(TWINS)
    m = parsed
    for op in (SetParam("A", "n", IntLiteral(7)), Stop("A"), RUN, Stop("A"), Start("A")):
        m = apply_evolution(op, m).result
        assert repr(m.components["B"]) == repr(expected.components["B"])
    assert m.components["A"].params["n"].value == 7
    erased = erase_param_values(m)
    assert erased.components["B"].params["n"].value is None
    removed = apply_evolution(RemoveComponent("A"), m).result
    assert "A" not in removed.components
    assert repr(removed.components["B"]) == repr(expected.components["B"])
    assert parsed == expected and repr(parsed) == repr(expected)
