"""The textual architecture description language.

``.arch`` files describe component models, ``.ops`` files named composite
reconfiguration recipes.  Paths (``.rp``) and formulas (``.ftpl``) share their
lexer: every format is whitespace-insensitive and allows ``//`` comments.
Printing is canonical — components sorted by id, bindings sorted
lexicographically — so equal models print byte-identical text.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Callable, Optional, Union

# validate_model stays importable because perfbench/tracer.py rebinds it here
from .model import (
    STARTED,
    STOPPED,
    Binding,
    Change,
    Component,
    ComponentModel,
    Delegation,
    Param,
    binding_key,
    validate_model,  # noqa: F401
)
from .reconfig import (
    AddComponent,
    Bind,
    BinOp,
    IntExpr,
    IntLiteral,
    ParamRef,
    Primitive,
    RemoveComponent,
    RUN_NAME,
    SetParam,
    Start,
    Stop,
    Unbind,
    operation_table,
)
from .record import record


class AdlSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class AdlValidationError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("invalid model: " + "; ".join(violations))
        self.violations = violations


# How deep a parsed expression may nest: an integer expression in a recipe,
# or a formula with its properties.  Its syntax tree may be this many levels
# high, and its brackets may nest this deep.  Code that walks the tree
# (evaluation, printing, hashing) recurses once per level and the parsers
# once per bracket, so deeper input is a syntax error rather than a
# RecursionError.  A left-associated chain such as ``1 + 1 + 1`` is one level
# higher per operator.  The printers open at most one bracket per level of
# the tree, so printed text parses again.
MAX_NESTING = 100


# --- lexer ---------------------------------------------------------------------
#
# Lexical grammar: whitespace is ' ', tab, CR and LF; a comment runs from
# '//' to the end of the line.  An identifier starts with a letter
# (str.isalpha) or '_' and goes on with str.isalnum characters and '_'; an
# integer is a run of str.isdigit characters; a string is double-quoted on
# one line, where only \" and \\ are escapes (any other backslash stands
# for itself).  Punctuation is one of _PUNCT.

# longest first so ':=' wins over ':' and '->' over '-'
_PUNCT = (":=", "->", "<=", ">=", "!=", "{", "}", "(", ")", "[", "]",
          ":", ".", ",", "+", "-", "*", "=", "<", ">")

# whitespace, then any comments, each with the whitespace after it
_SKIP = r"[ \t\r\n]*+(?://[^\n]*+[ \t\r\n]*+)*+"
_IDENT = r"[^\W\d]\w*+"
_STRING = r'"(?:[^"\\\n]++|\\["\\]?)*+"'
_LEXEME = f"{_IDENT}|\\d++|{_STRING}|" + "|".join(re.escape(p) for p in _PUNCT)
# one possessive match over the whole text: where it stops is the first
# character no lexeme can start with (or an unterminated string), and its
# group ends with the last lexeme
_VALID_RE = re.compile(f"((?:{_SKIP}(?:{_LEXEME}))*+){_SKIP}")
_TOKEN_RE = re.compile(f"{_SKIP}({_LEXEME})")
_ESCAPE_RE = re.compile(r'\\(["\\])')


def _kind(lex: str) -> str:
    c = lex[:1]
    if c == '"':
        return "string"
    if c.isdigit():
        return "int"
    if c.isalpha() or c == "_":
        return "ident"
    return "punct" if c else "eof"


def _value(lex: str) -> str:
    """A token's value: a string lexeme loses its quotes and escapes."""
    if lex[:1] != '"':
        return lex
    body = lex[1:-1]
    return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _located(text: str, end: int, error=AdlSyntaxError) -> list[tuple[str, int]]:
    """Lexemes of ``text[:end]`` with their offsets.

    Outside ASCII ``[^\\W\\d]`` and ``\\d`` are wider and narrower than the
    grammar's "letter" (``str.isalpha``) and "digit" (``str.isdigit``): a
    word the pattern reads as an identifier starting with a digit such as
    '²' is an integer that may run on from the lexeme before it, and one
    starting with a numeral such as 'Ⅻ' is an error.
    """
    out: list[tuple[str, int]] = []
    for m in _TOKEN_RE.finditer(text, 0, end):
        lex, at = m.group(1), m.start(1)
        c = lex[0]
        if c.isascii() or c.isalpha() or c.isdecimal() or not c.isalnum():
            out.append((lex, at))
            continue
        k = 0
        while k < len(lex) and lex[k].isdigit():
            k += 1
        if k < len(lex) and not (lex[k].isalpha() or lex[k] == "_"):
            raise error(f"unexpected character {lex[k]!r}", *_line_col(text, at + k))
        prev, prev_at = out[-1] if out else ("", 0)
        if prev[:1].isdigit() and prev_at + len(prev) == at:
            out[-1] = (prev + lex[:k], prev_at)
        else:
            out.append((lex[:k], at))
        if k < len(lex):
            out.append((lex[k:], at + k))
    return out


def _lexemes(text: str, error=AdlSyntaxError) -> list[str]:
    """The lexemes of ``text`` followed by ``""`` for end of input; a lexical
    error raises ``error``."""
    m = _VALID_RE.match(text)
    if text.isascii():
        lexemes = _TOKEN_RE.findall(text, 0, m.end(1))
    else:
        lexemes = [lex for lex, _ in _located(text, m.end(1), error)]
    if m.end() < len(text):
        ch = text[m.end()]
        message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
        raise error(message, *_line_col(text, m.end()))
    lexemes.append("")
    return lexemes


def _offsets(text: str) -> list[int]:
    """Offsets of the lexemes of a valid text, then of its end of input,
    which does not move over a comment on the last line."""
    last_end = _VALID_RE.match(text).end(1)
    comment = text.find("//", max(last_end, text.rfind("\n") + 1))
    return ([at for _, at in _located(text, last_end)]
            + [comment if comment >= 0 else len(text)])


class TokenStream:
    """Cursor over the lexemes of one text.

    Keywords and punctuation are compared as plain strings (a string
    lexeme keeps its quotes, so it never equals either); a lexeme's kind
    follows from its first character.  Line and column are worked out
    only for an error, which is raised as ``error``: the class of the
    format being read, an :class:`AdlSyntaxError` itself or a subclass.
    """

    def __init__(self, text: str, error=AdlSyntaxError):
        self._lex = _lexemes(text, error)
        self._error = error
        self._text = text
        self._offsets: Optional[list[int]] = None
        self._pos = 0
        self._brackets = 0  # open brackets taken by open_bracket

    def _where(self, index: int) -> tuple[int, int]:
        if self._offsets is None:
            self._offsets = _offsets(self._text)
        return _line_col(self._text, self._offsets[index])

    def lexeme(self) -> str:
        return self._lex[self._pos]

    def kind(self) -> str:
        return _kind(self._lex[self._pos])

    def next(self) -> str:
        lex = self._lex[self._pos]
        if lex:
            self._pos += 1
        return lex

    def next_int(self) -> int:
        """Consume an integer lexeme; one ``int`` refuses is a syntax error."""
        lex = self._lex[self._pos]
        try:
            value = int(lex)
        except ValueError:
            shown = repr(lex) if len(lex) <= 32 else f"of {len(lex)} digits"
            raise self.error(f"invalid integer literal {shown}") from None
        self._pos += 1
        return value

    def next_string(self) -> str:
        return _value(self.next())

    def error(self, message: str) -> AdlSyntaxError:
        return self._error(message, *self._where(self._pos))

    def found(self) -> str:
        """The current token for an error message, quoted."""
        return repr(_value(self._lex[self._pos]) or "end of input")

    def expect_ident(self, what: str = "identifier") -> str:
        lex = self._lex[self._pos]
        c = lex[:1]
        if not (c.isalpha() or c == "_"):
            raise self.error(f"expected {what}, found {self.found()}")
        self._pos += 1
        return lex

    def expect(self, *words: str) -> str:
        lex = self._lex[self._pos]
        if lex in words:
            self._pos += 1
            return lex
        raise self.error(f"expected {' or '.join(repr(w) for w in words)}, "
                         f"found {self.found()}")

    def at(self, *words: str) -> bool:
        return self._lex[self._pos] in words

    def nested(self, height: int) -> int:
        """``height``, of a syntax tree just parsed, checked against
        :data:`MAX_NESTING` (an error here when it goes past)."""
        if height > MAX_NESTING:
            raise self.error(f"nested more than {MAX_NESTING} levels deep")
        return height

    def open_bracket(self, value: str) -> None:
        """Consume the opening bracket ``value``, of which at most
        :data:`MAX_NESTING` may be open; a parser recursing at a bracket
        pairs this with :meth:`close_bracket`."""
        if self._brackets == MAX_NESTING and self._lex[self._pos] == value:
            raise self.error(f"brackets nested more than {MAX_NESTING} deep")
        self.expect(value)
        self._brackets += 1

    def close_bracket(self, value: str) -> None:
        self.expect(value)
        self._brackets -= 1


def _parse_literal(ts: TokenStream, cls: str):
    if cls == "int":
        neg = False
        if ts.at("-"):
            ts.next()
            neg = True
        if ts.kind() != "int":
            raise ts.error("expected integer literal")
        value = ts.next_int()
        return -value if neg else value
    if cls == "string":
        if ts.kind() != "string":
            raise ts.error("expected string literal")
        return ts.next_string()
    return ts.expect("true", "false") == "true"  # bool, the one class left


# --- model files (.arch) ---------------------------------------------------------

def _parse_component_block(ts: TokenStream) -> Component:
    ts.expect("component", "composite")
    cid = ts.expect_ident("component name")
    ts.expect("{")
    cls: Optional[str] = None
    params: dict[str, Param] = {}
    inputs: dict[str, str] = {}
    outputs: dict[str, str] = {}
    contains: list[str] = []
    state: Optional[str] = None
    while not ts.at("}"):
        word = ts.expect("class", "input", "output", "param", "contains", "state")
        if word == "class":
            if cls is not None:
                raise ts.error(f"component '{cid}' declares class twice")
            cls = ts.expect_ident("class name")
        elif word in ("input", "output"):
            port = ts.expect_ident("port name")
            ts.expect(":")
            pcls = ts.expect_ident("port class")
            target = inputs if word == "input" else outputs
            if port in target:
                raise ts.error(f"duplicate {word} port '{port}' on '{cid}'")
            target[port] = pcls
        elif word == "param":
            name = ts.expect_ident("parameter name")
            ts.expect(":")
            pcls = ts.expect("int", "string", "bool")
            ts.expect("=")
            value = _parse_literal(ts, pcls)
            if name in params:
                raise ts.error(f"duplicate parameter '{name}' on '{cid}'")
            params[name] = Param(pcls, value)
        elif word == "contains":
            child = ts.expect_ident("component name")
            if child in contains:
                raise ts.error(f"duplicate contains '{child}' on '{cid}'")
            contains.append(child)
        else:  # state
            if state is not None:
                raise ts.error(f"component '{cid}' declares state twice")
            state = ts.expect(STARTED, STOPPED)
    ts.expect("}")
    if cls is None:
        raise ts.error(f"component '{cid}' has no class")
    return Component(id=cid, cls=cls, params=params, inputs=inputs, outputs=outputs,
                     contains=frozenset(contains), state=state or STARTED)


def _parse_endpoint_pair(ts: TokenStream) -> tuple[str, str, str, str]:
    a = ts.expect_ident("component name")
    ts.expect(".")
    ap = ts.expect_ident("port name")
    ts.expect("->")
    b = ts.expect_ident("component name")
    ts.expect(".")
    bp = ts.expect_ident("port name")
    return a, ap, b, bp


# A well-formed ASCII model is read by the patterns below, which lex as the
# lexer does: whitespace and comments between any two tokens, identifiers
# and digit runs taken whole, and a keyword never followed by a word
# character (\b after its last letter).  They see ASCII text only, where
# re.ASCII leaves every character class as it is and matches faster.  A
# declaration's body repeats the item pattern with its groups made
# non-capturing, and its items are then read with the capturing one:
# CPython's re raises SystemError for a capturing group inside a possessive
# repeat.
def _spaced(pattern: str) -> str:
    """``pattern`` with each space standing for whitespace and comments, and
    ID for an identifier."""
    return pattern.replace(" ", _SKIP).replace("ID", _IDENT)


_ITEM = _spaced(r" (?:class\b (ID)|(input|output)\b (ID) : (ID)"
                r"|param\b (ID) : (int|string|bool)\b = (?:(-?) (\d++)|(STRING)|(true|false)\b)"
                r"|contains\b (ID)|state\b (started|stopped)\b)").replace("STRING", _STRING)
_ITEM_RE = re.compile(_ITEM, re.ASCII)
_HEAD_RE = re.compile(_spaced(r" model\b (ID) \{"), re.ASCII)
# one match per declaration, then the closing brace with nothing but
# whitespace and comments after it, and any other character alone; so a
# stray character is a match of its own.  Only where whitespace and
# comments run to the end of the text does nothing match, and findall's
# next match there, if any, is a stray slash of a comment
_MODEL_RE = re.compile(_spaced(r" (?:(?:component|composite)\b (ID) \{(BODY) \}"
                               r"|(bind|delegate)\b (ID) \. (ID) -> (ID) \. (ID)|(\}) \Z|(.))")
                       .replace("BODY", "(?:%s)*+" % re.sub(r"\((?!\?)", "(?:", _ITEM)),
                       re.ASCII | re.DOTALL)


def _read_component(items: list[tuple[str, ...]]) -> Optional[tuple]:
    """The fields of a :class:`Component` after its id (class, params,
    inputs, outputs, contains, state) read from a body's ``items``; None
    where the token parser reads the body otherwise or refuses it."""
    cls = state = None
    params: dict[str, Param] = {}
    inputs: dict[str, str] = {}
    outputs: dict[str, str] = {}
    contains: list[str] = []
    for name, io, port, pcls, pname, kind, neg, digits, string, word, child, st in items:
        if io:
            (inputs if io == "input" else outputs)[port] = pcls
        elif name:
            cls = name
        elif pname:
            if kind == "int" and digits:
                try:
                    value = int(neg + digits)
                except ValueError:  # past the digit limit
                    return None
            elif kind == "string" and string:
                value = _value(string)
            elif kind == "bool" and word:
                value = word == "true"
            else:
                return None
            params[pname] = Param(kind, value)
        elif child:
            contains.append(child)
        else:
            state = st
    # each item makes one entry, so one given twice (class and state
    # included) leaves fewer entries than items
    children = frozenset(contains)  # as the token parser builds it, for its order
    entries = len(params) + len(inputs) + len(outputs) + len(children) + (state is not None)
    if cls is None or entries + 1 != len(items):
        return None
    return cls, params, inputs, outputs, children, state or STARTED


def _read_model(text: str) -> Optional[ComponentModel]:
    """The model of a well-formed ASCII ``.arch`` text, read by compiled
    patterns in one pass; None for any text they do not cover end to end
    and for any model the token parser refuses, which :func:`parse_model`
    then reads with the token parser, for its error.  Each distinct body
    text is read once, and the components declared with it share its field
    objects."""
    head = _HEAD_RE.match(text) if text.isascii() else None
    if head is None:
        return None
    found = _MODEL_RE.findall(text, head.end())
    # the closing brace must end the text, so only the last match can be it
    if not found or not found[-1][7]:
        return None
    # shared safely: no operation changes a component's dicts in place
    bodies: dict[str, Optional[tuple]] = {}
    components: dict[str, Component] = {}
    bindings: set[Binding] = set()
    delegations: set[Delegation] = set()
    for cid, body, word, a, ap, b, bp, _end, stray in found:
        if word == "bind":
            n = len(bindings)
            bindings.add(Binding(a, ap, b, bp))
            if len(bindings) == n:
                return None
        elif word:
            n = len(delegations)
            delegations.add(Delegation(a, ap, b, bp))
            if len(delegations) == n:
                return None
        elif cid:
            fields = bodies.get(body)
            if fields is None:
                fields = bodies[body] = _read_component(_ITEM_RE.findall(body))
            if fields is None or cid in components:
                return None
            components[cid] = Component(cid, *fields)
        elif stray:
            return None
    return ComponentModel(head.group(1), components, frozenset(bindings),
                          frozenset(delegations))


def parse_model(text: str) -> ComponentModel:
    """Parse an ``.arch`` model, raising :class:`AdlSyntaxError` on malformed
    input.  Only the syntax is checked: ``model.validate_model`` lists the
    structural violations, and ``checker.check`` refuses a model with any.
    """
    model = _read_model(text)
    return _parse_model_tokens(text) if model is None else model


def _parse_model_tokens(text: str) -> ComponentModel:
    """:func:`parse_model` by the token parser, which reports every error."""
    ts = TokenStream(text)
    ts.expect("model")
    name = ts.expect_ident("model name")
    ts.expect("{")
    components: dict[str, Component] = {}
    bindings: set[Binding] = set()
    delegations: set[Delegation] = set()
    while not ts.at("}"):
        if ts.at("component", "composite"):
            comp = _parse_component_block(ts)
            if comp.id in components:
                raise ts.error(f"duplicate component id '{comp.id}'")
            components[comp.id] = comp
        elif ts.at("bind"):
            ts.next()
            a, ap, b, bp = _parse_endpoint_pair(ts)
            bnd = Binding(a, ap, b, bp)
            if bnd in bindings:
                raise ts.error(f"duplicate binding {a}.{ap} -> {b}.{bp}")
            bindings.add(bnd)
        elif ts.at("delegate"):
            ts.next()
            a, ap, b, bp = _parse_endpoint_pair(ts)
            dlg = Delegation(a, ap, b, bp)
            if dlg in delegations:
                raise ts.error(f"duplicate delegation {a}.{ap} -> {b}.{bp}")
            delegations.add(dlg)
        else:
            raise ts.error("expected component, composite, bind or delegate")
    ts.expect("}")
    if ts.kind() != "eof":
        raise ts.error("trailing input after model")
    return ComponentModel(name=name, components=components,
                          bindings=frozenset(bindings), delegations=frozenset(delegations))


def format_literal(pv: Param) -> str:
    """A parameter value as the file formats spell it, integers of any length."""
    if pv.cls == "string":
        escaped = str(pv.value).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if pv.cls == "bool":
        return "true" if pv.value else "false"
    try:
        return str(pv.value)
    except ValueError:  # past Python's digit limit for int-to-str conversion
        from decimal import Decimal  # imported for such integers only
        return str(Decimal(pv.value))


def _head(c: Component, indent: str) -> str:
    """The first line of ``c``'s text, the only one that names its id."""
    return f"{indent}{'composite' if c.contains else 'component'} {c.id} {{"


def _format_component(c: Component, indent: str) -> list[str]:
    inner = indent + "  "
    lines = [_head(c, indent), f"{inner}class {c.cls}"]
    for name in sorted(c.params):
        lines.append(f"{inner}param {name} : {c.params[name].cls} = "
                     f"{format_literal(c.params[name])}")
    for port in sorted(c.inputs):
        lines.append(f"{inner}input {port} : {c.inputs[port]}")
    for port in sorted(c.outputs):
        lines.append(f"{inner}output {port} : {c.outputs[port]}")
    for child in sorted(c.contains):
        lines.append(f"{inner}contains {child}")
    lines.append(f"{inner}state {c.state}")
    lines.append(f"{indent}}}")
    return lines


def _component_text(c: Component) -> str:
    return "\n".join(_format_component(c, "  ")) + "\n"


def _component_texts(objs: list[Component]) -> list[str]:
    """The texts of components ``objs``, each distinct body formatted once.

    A text's first line alone names the id.  The components read from one
    declaration body, or evolved from one, share its field objects, so a
    body is keyed by those; ``objs`` holds them for the call, so no id in a
    key is reused during it."""
    bodies: dict[tuple, str] = {}
    texts = []
    for c in objs:
        head = _head(c, "  ")
        key = (c.cls, id(c.params), id(c.inputs), id(c.outputs), id(c.contains), c.state)
        body = bodies.get(key)
        if body is None:
            text = _component_text(c)
            bodies[key] = text[len(head):]
            texts.append(text)
        else:
            texts.append(head + body)
    return texts


def _binding_line(key: tuple[str, str, str, str]) -> str:
    """The line of the binding whose :func:`binding_key` is ``key``."""
    return "  bind %s.%s -> %s.%s\n" % key


def _binding_lines(bindings: frozenset[Binding]) -> tuple[list[tuple], list[str]]:
    """The sort keys of ``bindings``, in order, and their lines."""
    keys = sorted(map(binding_key, bindings))
    return keys, list(map(_binding_line, keys))


def _delegation_lines(delegations: frozenset[Delegation]) -> list[str]:
    return [f"  delegate {d.composite}.{d.composite_port} -> {d.inner}.{d.inner_port}\n"
            for d in sorted(delegations, key=lambda d: (d.composite, d.composite_port,
                                                         d.inner, d.inner_port))]


def _model_parts(m: ComponentModel, component_texts: list[str],
                 binding_lines: list[str]) -> list[str]:
    """The parts a model's text joins: its first line, the component texts in
    id order, the binding lines, the delegation lines and its last line."""
    return [f"model {m.name} {{\n", *component_texts, *binding_lines,
            *_delegation_lines(m.delegations), "}\n"]


def print_model(m: ComponentModel) -> str:
    """Canonical text for a model; reparses to an equal model."""
    comps = m.components
    return "".join(_model_parts(m, _component_texts([comps[cid] for cid in sorted(comps)]),
                                _binding_lines(m.bindings)[1]))


def _digest(text: str) -> str:
    import hashlib  # on first use: a check that shows no witness loads no hash library

    return hashlib.sha256(text.encode()).hexdigest()[:12]


def model_digest(m: ComponentModel) -> str:
    """Short content hash of the canonical text; used in witness reports."""
    return _digest(print_model(m))


# how many parts of a model's text (see _model_parts) a digester hashes
# between two of the SHA-256 midstates it keeps
_BLOCK = 64


def model_digester() -> Callable[[Union[ComponentModel, Change]], str]:
    """A :func:`model_digest` for the configurations of one run.

    An operation shares every component it does not touch with its input,
    so successive configurations share most of their text.  The returned
    function keeps the last configuration's text part by part, as
    :func:`_model_parts` splits it, with its sorted component ids, the
    component object at each id and the sorted binding keys.  It takes
    the run's first configuration as a model, which it formats afresh as
    :func:`print_model` formats it, each distinct body once, and each
    later one as the :class:`~reconfcheck.model.Change` from the last one
    it took, whose ids and bindings it patches.

    SHA-256 hashes its input in order, so a digest resumes from the state
    it reached just before the first part that changed.  A text of more
    than :data:`_BLOCK` parts keeps a copy of that state every
    :data:`_BLOCK` parts, and hashes from the last copy before the first
    changed part to the end, keeping new copies as it goes; a shorter text
    is hashed whole, as :func:`model_digest` hashes it.  Its digests equal
    :func:`model_digest`'s.  It keeps no model: only the last
    configuration's components, delegation set and parts, and hash states.
    """
    import hashlib  # a check that shows no witness makes no digester

    ids: list[str] = []  # the last configuration's ids, sorted
    objs: list[Component] = []  # the component at each id
    keys: list[tuple[str, str, str, str]] = []  # its binding sort keys, in order
    delegated: frozenset[Delegation] = frozenset()  # its delegation set
    parts: list[str] = []  # its text, part by part: id i at i + 1, then the bindings
    states = [hashlib.sha256()]  # states[k]: the state after hashing parts[:k * _BLOCK]
    first = 0  # the first part the configuration being digested changed

    def update(m: Union[ComponentModel, Change]) -> None:
        """Bring the parts up to date with ``m``, setting ``first``."""
        nonlocal delegated, first
        if not isinstance(m, Change):
            ids[:] = sorted(m.components)
            objs[:] = map(m.components.__getitem__, ids)
            keys[:], lines = _binding_lines(m.bindings)
            parts[:] = _model_parts(m, _component_texts(objs), lines)
            delegated, first = m.delegations, 0
            return
        for x, c in m.components.items():
            i = bisect_left(ids, x)
            at = i + 1
            if i < len(ids) and ids[i] == x:
                if c is None:
                    del ids[i], objs[i], parts[at]
                elif objs[i] is not c:
                    objs[i], parts[at] = c, _component_text(c)
                else:
                    continue
            elif c is not None:
                ids.insert(i, x)
                objs.insert(i, c)
                parts.insert(at, _component_text(c))
            else:
                continue
            first = min(first, at)
        for b, bound in m.bindings.items():
            key = binding_key(b)
            i = bisect_left(keys, key)
            at = len(ids) + 1 + i
            line_held = i < len(keys) and keys[i] == key
            if bound == line_held:
                continue
            if line_held:
                del keys[i], parts[at]
            else:
                keys.insert(i, key)
                parts.insert(at, _binding_line(key))
            first = min(first, at)
        if m.uncoupled:
            at = len(ids) + len(keys) + 1
            delegated = delegated - m.uncoupled
            lines = _delegation_lines(delegated)
            if parts[at:-1] != lines:
                parts[at:-1] = lines
                first = min(first, at)

    def digest(m: Union[ComponentModel, Change]) -> str:
        nonlocal first
        first = len(parts)
        update(m)
        if len(parts) <= _BLOCK:
            # hashed whole, keeping no state: the first part the next configuration
            # changes comes before this text's last, so it resumes from states[0]
            return _digest("".join(parts))
        k = first // _BLOCK
        del states[k + 1:]
        h = states[k].copy()
        for at in range(k * _BLOCK, len(parts), _BLOCK):
            h.update("".join(parts[at:at + _BLOCK]).encode())
            if at + _BLOCK <= len(parts):
                states.append(h.copy())
        return h.hexdigest()[:12]

    return digest


# --- recipe files (.ops) ---------------------------------------------------------

@record
class RecipeSet:
    """Named composite-operation recipes, as parsed from an ``.ops`` file."""

    recipes: dict[str, tuple[Primitive, ...]] = {}

    def operation_table(self):
        return operation_table(self.recipes)

    def names(self) -> list[str]:
        return sorted(self.recipes) + [RUN_NAME]


# Each subtree comes back with the height of its syntax tree, checked with
# TokenStream.nested; the parser recurses only at brackets, which
# TokenStream.open_bracket counts, and reads a run of unary minus in a loop.
def _parse_int_expr(ts: TokenStream) -> tuple[IntExpr, int]:
    expr, h = _parse_int_term(ts)
    while ts.at("+") or ts.at("-"):
        op = ts.next()
        right, hr = _parse_int_term(ts)
        expr, h = BinOp(op, expr, right), ts.nested(max(h, hr) + 1)
    return expr, h


def _parse_int_term(ts: TokenStream) -> tuple[IntExpr, int]:
    expr, h = _parse_int_factor(ts)
    while ts.at("*"):
        ts.next()
        right, hr = _parse_int_factor(ts)
        expr, h = BinOp("*", expr, right), ts.nested(max(h, hr) + 1)
    return expr, h


def _parse_int_factor(ts: TokenStream) -> tuple[IntExpr, int]:
    negations = 0
    while ts.at("-"):
        ts.next()
        negations += 1
    if ts.at("("):
        ts.open_bracket("(")
        expr, h = _parse_int_expr(ts)
        ts.close_bracket(")")
    else:
        expr, h = _parse_int_leaf(ts), 1
    for _ in range(negations):  # innermost first, as written
        if isinstance(expr, IntLiteral):
            expr = IntLiteral(-expr.value)
        else:
            expr, h = BinOp("-", IntLiteral(0), expr), ts.nested(h + 1)
    return expr, h


def _parse_int_leaf(ts: TokenStream) -> IntExpr:
    if ts.at("param"):
        ts.next()
        ts.expect("(")
        comp = ts.expect_ident("component name")
        ts.expect(".")
        name = ts.expect_ident("parameter name")
        ts.expect(")")
        return ParamRef(comp, name)
    if ts.kind() == "int":
        return IntLiteral(ts.next_int())
    raise ts.error("expected integer expression")


def _parse_step(ts: TokenStream) -> Primitive:
    word = ts.expect("add", "remove", "bind", "unbind", "set", "stop", "start")
    if word == "add":
        return AddComponent(_parse_component_block(ts))
    if word == "remove":
        ts.expect("component")
        return RemoveComponent(ts.expect_ident("component name"))
    if word in ("bind", "unbind"):
        a, ap, b, bp = _parse_endpoint_pair(ts)
        binding = Binding(a, ap, b, bp)
        return Bind(binding) if word == "bind" else Unbind(binding)
    if word == "set":
        comp = ts.expect_ident("component name")
        ts.expect(".")
        name = ts.expect_ident("parameter name")
        ts.expect(":=")
        expr, _height = _parse_int_expr(ts)
        return SetParam(comp, name, expr)
    if word == "stop":
        return Stop(ts.expect_ident("component name"))
    return Start(ts.expect_ident("component name"))


def parse_recipes(text: str) -> RecipeSet:
    """Parse an ``.ops`` file into a RecipeSet; one entry per ``op`` block.

    An integer expression deeper than :data:`MAX_NESTING` (its syntax tree,
    or its brackets) is an :class:`AdlSyntaxError`."""
    ts = TokenStream(text)
    recipes: dict[str, tuple[Primitive, ...]] = {}
    while ts.kind() != "eof":
        ts.expect("op")
        name = ts.expect_ident("recipe name")
        if name == RUN_NAME:
            raise ts.error(f"recipe name '{RUN_NAME}' is reserved")
        if name in recipes:
            raise ts.error(f"duplicate recipe name '{name}'")
        ts.expect("{")
        steps: list[Primitive] = []
        while not ts.at("}"):
            steps.append(_parse_step(ts))
        ts.expect("}")
        if not steps:
            raise ts.error(f"recipe '{name}' has no steps")
        recipes[name] = tuple(steps)
    return RecipeSet(recipes)


def _format_int_expr(expr: IntExpr) -> str:
    if isinstance(expr, IntLiteral):
        return str(expr.value)
    if isinstance(expr, ParamRef):
        return f"param({expr.component}.{expr.param})"
    return f"({_format_int_expr(expr.left)} {expr.op} {_format_int_expr(expr.right)})"


def _format_step(step: Primitive, indent: str) -> list[str]:
    if isinstance(step, AddComponent):
        lines = _format_component(step.template, indent)
        lines[0] = f"{indent}add " + lines[0][len(indent):]
        return lines
    if isinstance(step, RemoveComponent):
        return [f"{indent}remove component {step.id}"]
    if isinstance(step, (Bind, Unbind)):
        verb = "bind" if isinstance(step, Bind) else "unbind"
        b = step.binding
        return [f"{indent}{verb} {b.out_component}.{b.out_port} -> "
                f"{b.in_component}.{b.in_port}"]
    if isinstance(step, SetParam):
        return [f"{indent}set {step.component}.{step.param} := {_format_int_expr(step.expr)}"]
    if isinstance(step, Stop):
        return [f"{indent}stop {step.id}"]
    if isinstance(step, Start):
        return [f"{indent}start {step.id}"]
    raise TypeError(f"not a recipe step: {step!r}")


def print_recipes(rs: RecipeSet) -> str:
    """Canonical text for a recipe set (recipes sorted by name)."""
    lines: list[str] = []
    for name in sorted(rs.recipes):
        lines.append(f"op {name} {{")
        for step in rs.recipes[name]:
            lines.extend(_format_step(step, "  "))
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
