import random

import pytest

from reconfcheck import (
    PathExpr,
    PathSyntaxError,
    build_automaton,
    parse_path,
    print_path,
    residual_from,
)

import generators

SECTION31 = ("run RemoveCacheHandler AddCacheHandler "
             "(MemorySizeUp run AddFileServer DurationValidityUp DeleteFileServer)+")


def test_parse_section31_path():
    p = parse_path(SECTION31)
    assert len(p.prefix) == 3
    assert p.cycle is not None and len(p.cycle) == 5


def test_parse_single_run():
    p = parse_path("run")
    assert p == PathExpr(("run",), None)


def test_cycle_must_be_final():
    with pytest.raises(PathSyntaxError):
        parse_path("a (b)+ c")
    with pytest.raises(PathSyntaxError):
        parse_path("a (b c")
    with pytest.raises(PathSyntaxError):
        parse_path("a (b c)")
    with pytest.raises(PathSyntaxError):
        parse_path("a ()+")


def test_unknown_operation_rejected():
    with pytest.raises(PathSyntaxError):
        parse_path("run Mystery", known_ops={"run"})
    parse_path("run Mystery", known_ops={"run", "Mystery"})


def test_comments_and_whitespace():
    p = parse_path("# leading comment\n  run   # trailing\n(Op)+  ")
    assert p == PathExpr(("run",), ("Op",))


def test_names_and_comments_follow_the_shared_lexer():
    # a recipe name is lexed as the recipe file lexes it
    assert parse_path("(Café)+") == PathExpr((), ("Café",))
    assert parse_path("run // as in every format\n(Op)+ # and a path's own") == \
        PathExpr(("run",), ("Op",))


@pytest.mark.parametrize("text, message", [
    ("a (b)+ c", "1:8: repetition group must be final"),
    ("run\n  (b c", "2:7: expected ')', found 'end of input'"),
    ("a (b c) # no repeat", "1:9: expected '+', found 'end of input'"),
    ("a ()+", "1:4: empty repetition group"),
    ("# comment\nrun $", "2:5: unexpected character '$'"),
    ("run\x0c(Op)+", "1:4: unexpected character '\\x0c'"),
])
def test_syntax_errors_carry_line_and_column(text, message):
    with pytest.raises(PathSyntaxError) as err:
        parse_path(text)
    assert str(err.value) == message


def test_automaton_shape_section31():
    a = build_automaton(parse_path(SECTION31))
    assert a.n_states == 8
    assert a.q_max == 7
    assert a.back_target == 3
    assert a.has_cycle
    # ordering: every non-final transition increases the state index
    for q in range(a.n_states - 1):
        label, q2 = a.succ(q)
        assert q2 == q + 1 and q < q2
    label, target = a.succ(a.q_max)
    assert label == "DeleteFileServer" and target == 3  # the only decreasing edge
    assert a.succ(2) == ("AddCacheHandler", 3)


def test_finite_automaton_terminal():
    a = build_automaton(parse_path("run Op1 Op2", known_ops={"run", "Op1", "Op2"}))
    assert a.n_states == 4
    assert not a.has_cycle
    assert a.succ(a.q_max) is None


def test_empty_path_single_state():
    a = build_automaton(PathExpr((), None))
    assert a.n_states == 1
    assert a.succ(0) is None


def test_unknown_state_rejected():
    a = build_automaton(parse_path("run"))
    with pytest.raises(ValueError):
        a.succ(5)


def test_variant_back_targets():
    q1_variant = parse_path("run (RemoveCacheHandler AddCacheHandler MemorySizeUp "
                            "run AddFileServer DurationValidityUp DeleteFileServer)+")
    a = build_automaton(q1_variant)
    assert a.n_states == 8
    assert a.back_target == 1
    assert a.succ(a.q_max) == ("DeleteFileServer", 1)


def test_as_path_expr_inverts_build():
    rng = random.Random(11)
    for _ in range(100):
        p = generators.gen_path(rng, ["A", "B", "C"])
        assert residual_from(build_automaton(p), 0) == p


def test_residuals():
    a = build_automaton(parse_path(SECTION31))
    # inside the prefix
    assert residual_from(a, 1) == PathExpr(
        ("RemoveCacheHandler", "AddCacheHandler"),
        ("MemorySizeUp", "run", "AddFileServer", "DurationValidityUp", "DeleteFileServer"))
    # inside the cycle: remaining lap then the full cycle again
    r = residual_from(a, 4)
    assert r.prefix == ("run", "AddFileServer", "DurationValidityUp", "DeleteFileServer")
    assert r.cycle == ("MemorySizeUp", "run", "AddFileServer",
                       "DurationValidityUp", "DeleteFileServer")
    fin = build_automaton(parse_path("a b c", known_ops={"a", "b", "c"}))
    assert residual_from(fin, 3) == PathExpr((), None)


def test_residual_at_the_cycle_entry_after_a_prefix():
    a = build_automaton(parse_path(SECTION31))
    assert a.back_target == 3
    # the prefix is used up and the cycle has not started: the full cycle remains
    assert residual_from(a, 3) == PathExpr(
        (), ("MemorySizeUp", "run", "AddFileServer", "DurationValidityUp", "DeleteFileServer"))


def test_path_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        p = generators.gen_path(rng, ["Alpha", "Beta", "Gamma", "run"])
        assert parse_path(print_path(p)) == p
