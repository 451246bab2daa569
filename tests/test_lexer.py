"""The regex lexer against the character-by-character scanner it replaced.

``scalar_tokenize`` is that scanner, kept verbatim as the reference: on
every text the parsers' cursor must read the same lexemes (kinds, values,
lines and columns) or raise the same error message whether it is fed by
the lexer or by the reference's tokens, and the parsers must give the same
result or error either way.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from reconfcheck import adl, ftpl, parse_formula, parse_model, parse_path, parse_recipes, pathspec
from reconfcheck.adl import AdlSyntaxError

from conftest import SAMPLES

_PUNCT = (":=", "->", "<=", ">=", "!=", "{", "}", "(", ")", "[", "]",
          ":", ".", ",", "+", "-", "*", "=", "<", ">")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | punct | eof
    value: str
    line: int
    col: int


def scalar_tokenize(text: str, error=AdlSyntaxError) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    out.append(text[j + 1])
                    j += 2
                elif text[j] == "\n":
                    raise error("unterminated string", line, col)
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise error("unterminated string", line, col)
            tokens.append(Token("string", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise error(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ASCII punctuation, comment and string delimiters, and characters on
# which the regex classes and the str predicates part ways: 'é' is a
# letter, '²' a digit but not a decimal, '٣' a decimal digit, 'Ⅻ' a
# numeral that is neither
PIECES = (list("{}()[]:.,+-*=<>!/#$%&'?@^`|~;") +
          ["//", '"', "\\", "\r", "\n", " ", "\t", "é", "²", "٣", "Ⅻ",
           "a", "Z", "_", "0", "7", "model", "op", "int", "param", "before"])

texts = st.lists(st.sampled_from(PIECES), max_size=40).map("".join)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class ReferenceStream(adl.TokenStream):
    """The parsers' cursor fed by the reference scanner's tokens."""

    def __init__(self, text: str, error=AdlSyntaxError):
        super().__init__("", error)  # the cursor's own state, then the reference's lexemes
        self._tokens = scalar_tokenize(text, error)
        self._lex = [self._lexeme(tok) for tok in self._tokens]

    @staticmethod
    def _lexeme(tok: Token) -> str:
        if tok.kind != "string":
            return tok.value
        return '"' + tok.value.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def _where(self, index: int) -> tuple[int, int]:
        return self._tokens[index].line, self._tokens[index].col


def cursor_reads(stream, text):
    """The kind, value, line and column of every lexeme a cursor reads,
    through the end of input."""
    ts = stream(text)
    return [(adl._kind(lex), adl._value(lex), *ts._where(i)) for i, lex in enumerate(ts._lex)]


@settings(max_examples=600)
@given(texts)
@example("x // trailing comment")
@example('"a\\"b\\\\c\\d"')
@example("²³x ٣² 7²a aⅫ")
@example("7Ⅻ")
@example("Ⅻ")
@example("Ⅻ @")  # outside ASCII the earlier error is raised, not the match's end
@example('"open\n"')
def test_the_cursor_reads_the_lexer_as_it_reads_the_scalar_scanner(text):
    assert outcome(cursor_reads, adl.TokenStream, text) == \
        outcome(cursor_reads, ReferenceStream, text)


def test_the_cursor_reads_the_samples_alike():
    for path in sorted(SAMPLES.iterdir()):
        text = path.read_text()
        assert outcome(cursor_reads, adl.TokenStream, text) == \
            outcome(cursor_reads, ReferenceStream, text), path.name


BASE_TEXTS = [path.read_text() for path in sorted(SAMPLES.iterdir())] + [
    'model M { component C { class K param n : int = -12 param s : string = "a\\"b" '
    'param b : bool = true input i : T state stopped } }',
    "op Grow { set C.n := (param(C.n) + 2) * -3 - 1 }",
    'after Grow normal always [forall x in components (class(x) = K) and C.s = "q"]',
    "before Grow exceptional eventually [C.n >= -4 or not started(C)]",
]


@st.composite
def mutated_samples(draw):
    text = draw(st.sampled_from(BASE_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(PIECES))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            text = text[:i] + piece + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + len(piece):]
        else:
            text = text[:i] + piece + text[i + 1:]
    return text


def parse_outcomes(text):
    # parse_model reads a well-formed ASCII model without the lexer, so the
    # token parser is called on its own as well
    return [outcome(parse, text) for parse in (parse_model, adl._parse_model_tokens,
                                               parse_recipes, parse_path, parse_formula)]


@settings(max_examples=300)
@given(mutated_samples())
@example("model M { component C { class K param p : int = ² } }")
@example('model "M\\"" { }')
@example('op O { stop "" }')
def test_parsers_read_the_lexer_as_they_read_the_scalar_scanner(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adl, "TokenStream", ReferenceStream)
        mp.setattr(ftpl, "TokenStream", ReferenceStream)
        mp.setattr(pathspec, "TokenStream", ReferenceStream)
        reference = parse_outcomes(text)
    assert parse_outcomes(text) == reference


def test_import_names_the_python_version_it_needs():
    # the lexer's possessive quantifiers fail to compile before Python 3.11;
    # the package says so instead of surfacing a regex error
    src = Path(adl.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys; sys.version_info = (3, 10, 14); import reconfcheck"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().endswith("ImportError: reconfcheck needs Python 3.11 or later")
