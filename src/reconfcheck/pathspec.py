"""Reconfiguration path expressions and their lasso automata.

A path is a finite sequence of operation names, optionally ending in a
parenthesised group repeated forever: ``a b (c d e)+``.  The automaton is
deterministic by construction: states are consecutive integers, each state
has exactly one outgoing transition except the terminal state of a finite
path, and the only order-decreasing transition is the back edge leaving
q-max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .adl import AdlSyntaxError, TokenStream


class PathSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class PathExpr:
    prefix: tuple[str, ...]
    cycle: Optional[tuple[str, ...]] = None  # non-empty when present

    def __post_init__(self):
        if self.cycle is not None and not self.cycle:
            raise ValueError("cycle must be non-empty when present")


def _names(ts: TokenStream, known: Optional[set[str]]) -> tuple[str, ...]:
    names: list[str] = []
    while ts.kind() == "ident":
        names.append(ts.next())
        if known is not None and names[-1] not in known:
            raise PathSyntaxError(f"unknown operation name '{names[-1]}'")
    return tuple(names)


def parse_path(text: str, known_ops: Optional[Iterable[str]] = None) -> PathExpr:
    """Parse ``NAME* [ "(" NAME+ ")" "+" ]``.

    Names, whitespace and ``//`` comments follow the lexical grammar the
    other formats share (``adl``); ``#`` also starts a line comment.  A
    syntax error carries ``line:col``.  When ``known_ops`` is given every
    name must be one of them (the loaded recipe names plus ``run``).
    """
    known = set(known_ops) if known_ops is not None else None
    try:
        ts = TokenStream("\n".join(line.partition("#")[0] for line in text.split("\n")))
        prefix, cycle = _names(ts, known), None
        if ts.kind() != "eof":
            ts.expect_punct("(")
            cycle = _names(ts, known)
            if not cycle:
                raise ts.error("empty repetition group")
            ts.expect_punct(")")
            ts.expect_punct("+")
            if ts.kind() != "eof":
                raise ts.error("repetition group must be final")
    except AdlSyntaxError as exc:
        raise PathSyntaxError(str(exc)) from None
    return PathExpr(prefix, cycle)


def print_path(p: PathExpr) -> str:
    parts = list(p.prefix)
    if p.cycle is not None:
        parts.append("(" + " ".join(p.cycle) + ")+")
    return " ".join(parts)


@dataclass(frozen=True)
class PathAutomaton:
    """Deterministic lasso automaton with states 0 < 1 < ... < q_max.

    ``labels[q]`` is the operation on the unique transition leaving state
    q.  A finite path has one more state than labels and no back edge; a
    lasso has exactly one label per state, the last transition returning to
    ``back_target``.
    """

    labels: tuple[str, ...]
    n_states: int
    back_target: Optional[int]

    @property
    def q_max(self) -> int:
        return self.n_states - 1

    @property
    def has_cycle(self) -> bool:
        return self.back_target is not None

    def succ(self, q: int) -> Optional[tuple[str, int]]:
        """The unique outgoing transition (label, target), absent at a terminal."""
        if not 0 <= q < self.n_states:
            raise ValueError(f"unknown state {q}")
        if q == self.q_max:
            if self.back_target is None:
                return None
            return (self.labels[q], self.back_target)
        return (self.labels[q], q + 1)

    def prefix_labels(self) -> tuple[str, ...]:
        if self.back_target is None:
            return self.labels
        return self.labels[:self.back_target]

    def cycle_labels(self) -> tuple[str, ...]:
        if self.back_target is None:
            return ()
        return self.labels[self.back_target:]


def build_automaton(p: PathExpr) -> PathAutomaton:
    """One state per operation application, plus a final state on finite paths."""
    if p.cycle is None:
        return PathAutomaton(labels=p.prefix, n_states=len(p.prefix) + 1,
                             back_target=None)
    labels = p.prefix + p.cycle
    return PathAutomaton(labels=labels, n_states=len(labels),
                         back_target=len(p.prefix))


def residual_from(a: PathAutomaton, q: int) -> PathExpr:
    """The unexplored remainder of the path when standing at state ``q``.

    Inside the cycle the residual finishes the current lap and then repeats
    the full cycle, so replaying it from the reached configuration
    continues the original exploration.
    """
    if not 0 <= q < a.n_states:
        raise ValueError(f"unknown state {q}")
    if a.back_target is None:
        return PathExpr(a.labels[q:], None)
    if q <= a.back_target:
        return PathExpr(a.labels[q:a.back_target], a.labels[a.back_target:])
    return PathExpr(a.labels[q:], a.labels[a.back_target:])
