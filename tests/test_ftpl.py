import random
from decimal import Decimal

import pytest

from reconfcheck import (
    AdlSyntaxError,
    After,
    Always,
    Before,
    Eventually,
    EventSpec,
    FtplSyntaxError,
    RemoveComponent,
    apply_evolution,
    apply_primitive,
    build_automaton,
    check,
    erasure_invariant,
    event_holds,
    mentions_params,
    parse_cp,
    parse_formula,
    parse_path,
    print_cp,
    print_formula,
)
from reconfcheck.adl import MAX_NESTING
from reconfcheck.checker import CheckOptions
from reconfcheck.model import (
    And,
    Bound,
    ComponentPresent,
    ForAll,
    Implies,
    Not,
    ParamCmp,
    TrueAtom,
    VarClassIs,
)

import generators


def test_parse_example_formula():
    f = parse_formula("after AddCacheHandler normal "
                      "always [bound(CacheHandler.cache, RequestHandler.getCache)]")
    assert f == After(EventSpec("AddCacheHandler", "normal"),
                      Always(Bound("CacheHandler", "cache",
                                   "RequestHandler", "getCache")))


def test_parse_bare_trace():
    assert parse_formula("always [true]") == Always(TrueAtom())


def test_parse_before_eventually():
    f = parse_formula("before DeleteFileServer terminates "
                      "eventually [component(FileServer2)]")
    assert f == Before(EventSpec("DeleteFileServer", "terminates"),
                       Eventually(ComponentPresent("FileServer2")))


def test_parse_nested_after():
    f = parse_formula("after A normal after B exceptional eventually [false]")
    assert isinstance(f, After) and isinstance(f.inner, After)
    assert isinstance(f.inner.inner, Eventually)


def test_parse_formula_errors():
    with pytest.raises(FtplSyntaxError):
        parse_formula("after AddCacheHandler sideways always [true]")
    with pytest.raises(FtplSyntaxError):
        parse_formula("always true")  # property must be bracketed
    with pytest.raises(FtplSyntaxError):
        parse_formula("before X normal after Y normal always [true]")
    with pytest.raises(FtplSyntaxError):
        parse_formula("always [true]", known_ops=set())  # fine, no events
        parse_formula("after Mystery normal always [true]", known_ops={"run"})


def test_parse_cp_connectives_and_precedence():
    from reconfcheck.model import FalseAtom, Or
    cp = parse_cp("not component(A) and true implies component(B) or false")
    # implies binds loosest, then or, then and, then not
    assert cp == Implies(And(Not(ComponentPresent("A")), TrueAtom()),
                         Or(ComponentPresent("B"), FalseAtom()))


def test_parse_cp_quantifier_and_variables():
    cp = parse_cp("forall v in components (class(v) = FileStore)")
    assert cp == ForAll("v", "components", VarClassIs("v", "FileStore"))
    with pytest.raises(FtplSyntaxError):
        parse_cp("class(v) = FileStore")  # unbound variable
    with pytest.raises(FtplSyntaxError):
        parse_cp("present(w)")


def test_parse_cp_param_comparison():
    assert parse_cp("Core.p <= -3") == ParamCmp("Core", "p", "<=", -3)
    assert parse_cp('A.s = "x y"') == ParamCmp("A", "s", "=", "x y")
    assert parse_cp("A.b != false") == ParamCmp("A", "b", "!=", False)


def test_print_cp_spells_literals_as_the_model_printer_does():
    for literal, text in [('a"b\\c', '"a\\"b\\\\c"'), (True, "true"), (False, "false"),
                          (-7, "-7"), (2 ** 2 ** 14, str(Decimal(2 ** 2 ** 14)))]:
        cp = ParamCmp("A", "p", "=", literal)
        assert print_cp(cp) == f"A.p = {text}"
        if len(text) < 4300:  # the parser refuses integer literals past the digit limit
            assert parse_cp(print_cp(cp)) == cp


def test_bad_integer_literals_are_positioned_syntax_errors():
    with pytest.raises(FtplSyntaxError, match=r"^1:15: invalid integer literal '²'$"):
        parse_formula("always [C.p = ²]")
    with pytest.raises(FtplSyntaxError, match=r"^1:9: invalid integer literal '²'$"):
        parse_cp("C.p <= -²")


def test_an_unknown_event_name_is_a_positioned_syntax_error():
    with pytest.raises(FtplSyntaxError,
                       match=r"^1:7: unknown operation name 'Mystery' in event$") as err:
        parse_formula("after Mystery normal always [true]", known_ops={"run"})
    assert (err.value.line, err.value.col) == (1, 7)
    assert isinstance(err.value, AdlSyntaxError)
    # the name comes first in the text, so it is reported before the modality
    with pytest.raises(FtplSyntaxError, match="unknown operation name 'Mystery'"):
        parse_formula("after Mystery sideways always [true]", known_ops={"run"})


@pytest.mark.parametrize("parse, text, message", [
    (parse_formula, "always [X.p = -a]", "1:16: expected integer after '-'"),
    (parse_formula, "always [X.p = (]", "1:15: expected literal"),
    (parse_formula, "always [)]", "1:9: expected property atom, found ')'"),
    (parse_cp, "true false", "1:6: trailing input after property"),
    (parse_formula, "always [true] x", "1:15: trailing input after formula"),
])
def test_each_parser_error_names_its_position(parse, text, message):
    with pytest.raises(FtplSyntaxError) as err:
        parse(text)
    assert str(err.value) == message
    assert f"{err.value.line}:{err.value.col}:" == message.split(" ")[0]


def test_a_lexical_error_outside_ascii_is_a_formula_syntax_error():
    # 'Ⅻ' is refused by the lexer's non-ASCII branch, not by its pattern
    with pytest.raises(FtplSyntaxError, match=r"^1:9: unexpected character 'Ⅻ'$"):
        parse_formula("always [Ⅻ]")
    with pytest.raises(FtplSyntaxError, match=r"^1:1: unexpected character 'Ⅻ'$"):
        parse_cp("Ⅻ")


def test_event_holds_normal_vs_exceptional(http_model, http_ops):
    removed = apply_evolution(http_ops["RemoveCacheHandler"], http_model).result
    added = apply_evolution(http_ops["AddCacheHandler"], removed).result
    spec_normal = EventSpec("AddCacheHandler", "normal")
    assert event_holds(removed, added, "AddCacheHandler", spec_normal, 3) is True
    # removal of an absent component leaves the model unchanged: exceptional
    still = apply_primitive(RemoveComponent("FileServer2"), http_model)
    spec_exc = EventSpec("DeleteFileServer", "exceptional")
    assert event_holds(http_model, still, "DeleteFileServer", spec_exc, 1) is True
    assert event_holds(http_model, still, "DeleteFileServer",
                       EventSpec("DeleteFileServer", "normal"), 1) is False


def test_an_unknown_event_modality_is_refused_where_it_is_read(http_model):
    spec = EventSpec("run", "sometimes")
    with pytest.raises(ValueError, match=r"^unknown modality 'sometimes'$"):
        event_holds(http_model, http_model, "run", spec, 1)
    # position 0 and another label decide before the modality is read
    assert event_holds(http_model, http_model, "run", spec, 0) is False
    assert event_holds(http_model, http_model, "stop", spec, 1) is False


def test_event_label_mismatch(http_model):
    spec = EventSpec("AddCacheHandler", "terminates")
    assert event_holds(http_model, http_model, "run", spec, 1) is False


def test_event_position_zero_never_holds(http_model, http_ops):
    removed = apply_evolution(http_ops["RemoveCacheHandler"], http_model).result
    for modality in ("normal", "exceptional", "terminates"):
        spec = EventSpec("RemoveCacheHandler", modality)
        assert event_holds(http_model, removed, "RemoveCacheHandler", spec, 0) is False


def test_terminates_is_disjunction():
    rng = random.Random(5)
    for _ in range(80):
        m = generators.gen_model(rng)
        ops = generators.gen_recipes(rng, m).operation_table()
        name = rng.choice(list(ops))
        nxt = apply_evolution(ops[name], m).result
        normal = event_holds(m, nxt, name, EventSpec(name, "normal"), 1)
        exceptional = event_holds(m, nxt, name, EventSpec(name, "exceptional"), 1)
        terminates = event_holds(m, nxt, name, EventSpec(name, "terminates"), 1)
        assert terminates == (normal or exceptional)
        assert not (normal and exceptional)


def test_mentions_params():
    assert mentions_params(parse_formula("always [Core.p < 5]")) is True
    assert mentions_params(parse_formula("after A normal eventually [component(X)]")) is False
    assert mentions_params(parse_formula(
        "before B terminates always [component(X) and Core.q = 1]")) is True


def test_erasure_invariant(http_recipes):
    ops = http_recipes.operation_table()
    cc = "always [bound(CacheHandler.cache, RequestHandler.getCache)]"
    assert erasure_invariant(parse_formula(cc), ops) is True
    assert erasure_invariant(parse_formula(f"after AddCacheHandler normal {cc}"), ops) is True
    # events on parameter-updating recipes are not erasure invariant
    assert erasure_invariant(parse_formula(f"after MemorySizeUp normal {cc}"), ops) is False
    assert erasure_invariant(parse_formula("always [CacheHandler.memorySize < 500]"),
                             ops) is False


def test_formula_round_trip_generated():
    rng = random.Random(41)
    for _ in range(200):
        m = generators.gen_model(rng)
        f = generators.gen_formula(rng, m, ["Op0", "Op1"])
        assert parse_formula(print_formula(f)) == f


def test_cp_round_trip_generated():
    rng = random.Random(43)
    for _ in range(200):
        m = generators.gen_model(rng)
        cp = generators.gen_cp(rng, m, depth=3)
        assert parse_cp(print_cp(cp)) == cp


# formulas whose syntax tree is n levels high: every node is a level, so a
# chain of k binary operators adds k (brackets are no level of their own)
NESTED_FORMULAS = {
    "not": lambda n: "always [" + "not " * (n - 2) + "true]",
    "after": lambda n: "after run normal " * (n - 2) + "always [true]",
    "and": lambda n: "always [" + " and ".join(["true"] * (n - 1)) + "]",
    "or": lambda n: "eventually [" + " or ".join(["false"] * (n - 2) + ["true"]) + "]",
    "implies": lambda n: "always [" + " implies ".join(["true"] * (n - 1)) + "]",
    "exists": lambda n: "before run normal eventually ["
                        + "exists x in components (" * (n - 3) + "true" + ")" * (n - 3) + "]",
}


@pytest.mark.parametrize("shape", sorted(NESTED_FORMULAS))
def test_formulas_nest_at_most_max_nesting_levels(shape, http_model, http_ops):
    text = NESTED_FORMULAS[shape]
    f = parse_formula(text(MAX_NESTING), known_ops=http_ops)
    # everything that walks the tree gets through it
    a = build_automaton(parse_path("run (MemorySizeUp run)+"))
    verdict = check(f, a, http_model, http_ops, CheckOptions(oracle_crosscheck=True))
    assert verdict.status in ("holds", "fails")
    # printed text brackets no deeper than its tree is high
    assert parse_formula(print_formula(f)) == f
    assert hash(f) == hash(parse_formula(text(MAX_NESTING)))
    with pytest.raises(FtplSyntaxError, match=rf"^1:\d+: nested more than {MAX_NESTING} "
                                              r"levels deep$"):
        parse_formula(text(MAX_NESTING + 1))


def test_properties_nest_at_most_max_nesting_levels():
    assert parse_cp("not " * (MAX_NESTING - 1) + "true") is not None
    # reported where the property that got too high ends
    at = len("not " * MAX_NESTING + "true") + 1
    with pytest.raises(FtplSyntaxError, match=rf"^1:{at}: nested more than"):
        parse_cp("not " * MAX_NESTING + "true")


def test_brackets_nest_at_most_max_nesting_deep():
    def text(n):  # n brackets, the trace's included
        return "always [" + "(" * (n - 1) + "true" + ")" * (n - 1) + "]"
    assert parse_formula(text(MAX_NESTING)) == parse_formula("always [true]")
    at = len("always [") + MAX_NESTING  # the first bracket too many
    with pytest.raises(FtplSyntaxError, match=rf"^1:{at}: brackets nested more than "
                                              rf"{MAX_NESTING} deep$"):
        parse_formula(text(MAX_NESTING + 1))


@pytest.mark.parametrize("text", [
    "always [" + "not (" * 3000 + "true" + ")" * 3000 + "]",
    "after run normal " * 3000 + "always [true]",
    "always [" + "not " * 3000 + "true]",
])
def test_deep_formulas_are_syntax_errors_not_recursion_errors(text):
    with pytest.raises(FtplSyntaxError, match="nested more than"):
        parse_formula(text)
