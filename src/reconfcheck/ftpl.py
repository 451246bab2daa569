"""Temporal formulas over reconfiguration paths.

The temporal layer nests ``after``/``before`` around trace properties
(``always``/``eventually``), whose leaves are configuration properties in
brackets.  Events pair an operation name with a modality: ``normal`` (the
application changed the configuration), ``exceptional`` (it did not — the
operation fell back to the identity) or ``terminates`` (either).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

from .adl import TokenStream, format_literal
from .model import (
    And,
    Bound,
    ComponentModel,
    ComponentPresent,
    ConfigProperty,
    Exists,
    FalseAtom,
    ForAll,
    Implies,
    Not,
    Or,
    Param,
    ParamCmp,
    QUANTIFIER_DOMAINS,
    Started,
    Subcomponent,
    TrueAtom,
    VarClassIs,
    VarPresent,
    cp_mentions_params,
)
from .reconfig import AddComponent, Composite, EvolutionOperation, RemoveComponent, SetParam

MODALITIES = ("normal", "exceptional", "terminates")


class FtplSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class EventSpec:
    op_name: str
    modality: str


@dataclass(frozen=True)
class Always:
    cp: ConfigProperty


@dataclass(frozen=True)
class Eventually:
    cp: ConfigProperty


TraceProperty = Union[Always, Eventually]


@dataclass(frozen=True)
class After:
    event: EventSpec
    inner: "FtplFormula"


@dataclass(frozen=True)
class Before:
    event: EventSpec
    trace: TraceProperty


FtplFormula = Union[After, Before, Always, Eventually]


def event_holds(prev: ComponentModel, nxt: ComponentModel, label: str,
                e: EventSpec, position: int) -> bool:
    """Does the step ``prev --label--> nxt`` at path index ``position``
    satisfy the event?

    Position 0 satisfies nothing: an event needs a predecessor
    configuration.  ``normal`` requires the application to have changed the
    model, ``exceptional`` requires it not to, ``terminates`` is their
    disjunction.
    """
    if position <= 0 or label != e.op_name:
        return False
    if e.modality == "terminates":
        return True
    changed = prev != nxt
    if e.modality == "normal":
        return changed
    if e.modality == "exceptional":
        return not changed
    raise ValueError(f"unknown modality '{e.modality}'")


# --- configuration property concrete syntax --------------------------------------

def _cp_error(ts: TokenStream, message: str) -> FtplSyntaxError:
    return FtplSyntaxError(str(ts.error(message)))


# Each subtree comes back with the height of its syntax tree, checked with
# TokenStream.nested.  The parser recurses only at brackets, which
# TokenStream.open_bracket counts; chains of prefix operators and of
# ``implies`` are read in loops.  parse_cp and parse_formula report the
# TokenStream's syntax errors as FtplSyntaxError.
def _parse_cp(ts: TokenStream, bound_vars: frozenset[str]) -> tuple[ConfigProperty, int]:
    operands = [_parse_cp_or(ts, bound_vars)]
    while ts.at_keyword("implies"):
        ts.next()
        operands.append(_parse_cp_or(ts, bound_vars))
    cp, h = operands.pop()
    while operands:  # right associative
        left, hl = operands.pop()
        cp, h = Implies(left, cp), ts.nested(max(hl, h) + 1)
    return cp, h


def _parse_cp_or(ts: TokenStream, bound_vars) -> tuple[ConfigProperty, int]:
    left, h = _parse_cp_and(ts, bound_vars)
    while ts.at_keyword("or"):
        ts.next()
        right, hr = _parse_cp_and(ts, bound_vars)
        left, h = Or(left, right), ts.nested(max(h, hr) + 1)
    return left, h


def _parse_cp_and(ts: TokenStream, bound_vars) -> tuple[ConfigProperty, int]:
    left, h = _parse_cp_unary(ts, bound_vars)
    while ts.at_keyword("and"):
        ts.next()
        right, hr = _parse_cp_unary(ts, bound_vars)
        left, h = And(left, right), ts.nested(max(h, hr) + 1)
    return left, h


def _parse_cp_unary(ts: TokenStream, bound_vars) -> tuple[ConfigProperty, int]:
    negations = 0
    while ts.at_keyword("not"):
        ts.next()
        negations += 1
    if ts.at_keyword("forall", "exists"):
        kind = ts.next()
        var = ts.expect_ident("variable name")
        ts.expect_keyword("in")
        domain = ts.expect_keyword(*QUANTIFIER_DOMAINS)
        ts.open_bracket("(")
        body, h = _parse_cp(ts, bound_vars | {var})
        ts.close_bracket(")")
        cp, h = (ForAll if kind == "forall" else Exists)(var, domain, body), ts.nested(h + 1)
    else:
        cp, h = _parse_cp_atom(ts, bound_vars)
    for _ in range(negations):
        cp, h = Not(cp), ts.nested(h + 1)
    return cp, h


def _cp_literal(ts: TokenStream):
    if ts.at_punct("-"):
        ts.next()
        if ts.kind() != "int":
            raise _cp_error(ts, "expected integer after '-'")
        return -ts.next_int()
    kind = ts.kind()
    if kind == "int":
        return ts.next_int()
    if kind == "string":
        return ts.next_string()
    if ts.at_keyword("true", "false"):
        return ts.next() == "true"
    raise _cp_error(ts, "expected literal")


def _parse_cp_atom(ts: TokenStream, bound_vars) -> tuple[ConfigProperty, int]:
    if ts.at_punct("("):
        ts.open_bracket("(")
        inner, h = _parse_cp(ts, bound_vars)
        ts.close_bracket(")")
        return inner, h
    return _parse_cp_leaf(ts, bound_vars), 1


def _parse_cp_leaf(ts: TokenStream, bound_vars) -> ConfigProperty:
    if ts.at_keyword("true"):
        ts.next()
        return TrueAtom()
    if ts.at_keyword("false"):
        ts.next()
        return FalseAtom()
    if ts.at_keyword("component", "started", "present"):
        kind = ts.next()
        ts.expect_punct("(")
        name = ts.expect_ident()
        ts.expect_punct(")")
        if kind == "component":
            return ComponentPresent(name)
        if kind == "started":
            return Started(name)
        if name not in bound_vars:
            raise _cp_error(ts, f"present(): unbound variable '{name}'")
        return VarPresent(name)
    if ts.at_keyword("class"):
        ts.next()
        ts.expect_punct("(")
        var = ts.expect_ident("variable name")
        ts.expect_punct(")")
        ts.expect_punct("=")
        cls = ts.expect_ident("class name")
        if var not in bound_vars:
            raise _cp_error(ts, f"class(): unbound variable '{var}'")
        return VarClassIs(var, cls)
    if ts.at_keyword("bound"):
        ts.next()
        ts.expect_punct("(")
        a = ts.expect_ident()
        ts.expect_punct(".")
        ap = ts.expect_ident()
        ts.expect_punct(",")
        b = ts.expect_ident()
        ts.expect_punct(".")
        bp = ts.expect_ident()
        ts.expect_punct(")")
        return Bound(a, ap, b, bp)
    if ts.at_keyword("subcomponent"):
        ts.next()
        ts.expect_punct("(")
        child = ts.expect_ident()
        ts.expect_punct(",")
        parent = ts.expect_ident()
        ts.expect_punct(")")
        return Subcomponent(child, parent)
    # parameter comparison: Component.param RELOP literal
    if ts.kind() == "ident":
        comp = ts.next()
        ts.expect_punct(".")
        param = ts.expect_ident("parameter name")
        for op in ("<=", ">=", "!=", "<", ">", "="):
            if ts.at_punct(op):
                ts.next()
                return ParamCmp(comp, param, op, _cp_literal(ts))
        raise _cp_error(ts, "expected comparison operator")
    raise _cp_error(ts, f"expected property atom, found {ts.found()}")


def parse_cp(text: str) -> ConfigProperty:
    """Parse a standalone configuration property."""
    try:
        ts = TokenStream(text)
        cp, _height = _parse_cp(ts, frozenset())
    except FtplSyntaxError:
        raise
    except ValueError as exc:
        raise FtplSyntaxError(str(exc)) from None
    if ts.kind() != "eof":
        raise _cp_error(ts, "trailing input after property")
    return cp


def print_cp(cp: ConfigProperty) -> str:
    if isinstance(cp, TrueAtom):
        return "true"
    if isinstance(cp, FalseAtom):
        return "false"
    if isinstance(cp, ComponentPresent):
        return f"component({cp.id})"
    if isinstance(cp, Started):
        return f"started({cp.id})"
    if isinstance(cp, VarPresent):
        return f"present({cp.var})"
    if isinstance(cp, VarClassIs):
        return f"class({cp.var}) = {cp.cls}"
    if isinstance(cp, Bound):
        return (f"bound({cp.out_component}.{cp.out_port}, "
                f"{cp.in_component}.{cp.in_port})")
    if isinstance(cp, Subcomponent):
        return f"subcomponent({cp.child}, {cp.parent})"
    if isinstance(cp, ParamCmp):
        cls = "bool" if isinstance(cp.literal, bool) else \
            "string" if isinstance(cp.literal, str) else "int"
        return f"{cp.component}.{cp.param} {cp.relop} {format_literal(Param(cls, cp.literal))}"
    if isinstance(cp, Not):
        return f"not {print_cp(cp.inner)}" if _is_atom(cp.inner) \
            else f"not ({print_cp(cp.inner)})"
    if isinstance(cp, (And, Or, Implies)):
        word = {And: "and", Or: "or", Implies: "implies"}[type(cp)]
        return f"({print_cp(cp.left)} {word} {print_cp(cp.right)})"
    if isinstance(cp, (ForAll, Exists)):
        word = "forall" if isinstance(cp, ForAll) else "exists"
        return f"{word} {cp.var} in {cp.domain} ({print_cp(cp.body)})"
    raise TypeError(f"not a property node: {cp!r}")


def _is_atom(cp: ConfigProperty) -> bool:
    return not isinstance(cp, (Not, And, Or, Implies, ForAll, Exists))


# --- formula concrete syntax ------------------------------------------------------

def _parse_event(ts: TokenStream, known_ops) -> EventSpec:
    name = ts.expect_ident("operation name")
    modality = ts.expect_keyword(*MODALITIES)
    if known_ops is not None and name not in known_ops:
        raise FtplSyntaxError(f"unknown operation name '{name}' in event")
    return EventSpec(name, modality)


def _parse_trace(ts: TokenStream) -> tuple[TraceProperty, int]:
    word = ts.expect_keyword("always", "eventually")
    ts.open_bracket("[")
    cp, h = _parse_cp(ts, frozenset())
    ts.close_bracket("]")
    return (Always(cp) if word == "always" else Eventually(cp)), ts.nested(h + 1)


def _parse_formula(ts: TokenStream, known_ops) -> FtplFormula:
    events = []
    while ts.at_keyword("after"):
        ts.next()
        events.append(_parse_event(ts, known_ops))
    if ts.at_keyword("before"):
        ts.next()
        event = _parse_event(ts, known_ops)
        trace, h = _parse_trace(ts)
        f, h = Before(event, trace), ts.nested(h + 1)
    else:
        f, h = _parse_trace(ts)
    for event in reversed(events):
        f, h = After(event, f), ts.nested(h + 1)
    return f


def parse_formula(text: str, known_ops: Optional[Iterable[str]] = None) -> FtplFormula:
    """Parse a temporal formula.

    Grammar::

        formula := "after" EVENT formula | "before" EVENT trace | trace
        trace   := ("always" | "eventually") "[" cp "]"
        EVENT   := NAME ("normal" | "exceptional" | "terminates")

    A formula deeper than ``adl.MAX_NESTING`` (its syntax tree, or its
    brackets) is an :class:`FtplSyntaxError`, as for :func:`parse_cp`.
    """
    known = set(known_ops) if known_ops is not None else None
    try:
        ts = TokenStream(text)
        f = _parse_formula(ts, known)
    except FtplSyntaxError:
        raise
    except ValueError as exc:
        raise FtplSyntaxError(str(exc)) from None
    if ts.kind() != "eof":
        raise _cp_error(ts, "trailing input after formula")
    return f


def print_formula(f: FtplFormula) -> str:
    if isinstance(f, After):
        return f"after {f.event.op_name} {f.event.modality} {print_formula(f.inner)}"
    if isinstance(f, Before):
        return f"before {f.event.op_name} {f.event.modality} {print_formula(f.trace)}"
    if isinstance(f, Always):
        return f"always [{print_cp(f.cp)}]"
    if isinstance(f, Eventually):
        return f"eventually [{print_cp(f.cp)}]"
    raise TypeError(f"not a formula node: {f!r}")


def formula_events(f: FtplFormula) -> Iterator[EventSpec]:
    if isinstance(f, After):
        yield f.event
        yield from formula_events(f.inner)
    elif isinstance(f, Before):
        yield f.event


def mentions_params(f: FtplFormula) -> bool:
    """True when any configuration-property leaf reads a parameter value."""
    if isinstance(f, After):
        return mentions_params(f.inner)
    if isinstance(f, Before):
        return mentions_params(f.trace)
    return cp_mentions_params(f.cp)


def erasure_invariant(f: FtplFormula, ops: Mapping[str, EvolutionOperation]) -> bool:
    """Is the formula's truth unchanged when parameter values are erased?

    Requires parameter-free property leaves and, because an event's
    normal/exceptional status hinges on whether the application changed the
    model, event operations that never update a parameter: no ``set`` step,
    and no ``add`` from a template with parameters of an id that an earlier
    step removed, a pair that can reset a parameter and change nothing else.
    """
    if mentions_params(f):
        return False
    for event in formula_events(f):
        op = ops.get(event.op_name)
        removed = set()
        for s in op.steps if isinstance(op, Composite) else (op,):
            if isinstance(s, SetParam) or (isinstance(s, AddComponent) and s.template.params
                                           and s.template.id in removed):
                return False
            if isinstance(s, RemoveComponent):
                removed.add(s.id)
    return True
