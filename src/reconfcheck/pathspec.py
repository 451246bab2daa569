"""Reconfiguration path expressions and their lasso automata.

A path is a finite sequence of operation names, optionally ending in a
parenthesised group repeated forever: ``a b (c d e)+``.  The automaton is
deterministic by construction: states are consecutive integers, each state
has exactly one outgoing transition except the terminal state of a finite
path, and the only order-decreasing transition is the back edge leaving
q-max.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional


class PathSyntaxError(ValueError):
    pass


@dataclass(frozen=True)
class PathExpr:
    prefix: tuple[str, ...]
    cycle: Optional[tuple[str, ...]] = None  # non-empty when present

    def __post_init__(self):
        if self.cycle is not None and not self.cycle:
            raise ValueError("cycle must be non-empty when present")


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[()+]|\S")


def _path_tokens(text: str) -> list[str]:
    toks: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0]
        for tok in _TOKEN_RE.findall(line):
            if not (tok[0].isalpha() or tok[0] == "_" or tok in "()+"):
                raise PathSyntaxError(f"unexpected character {tok!r} in path")
            toks.append(tok)
    return toks


def parse_path(text: str, known_ops: Optional[Iterable[str]] = None) -> PathExpr:
    """Parse ``NAME* [ "(" NAME+ ")" "+" ]``; ``#`` starts a line comment.

    When ``known_ops`` is given every name must be one of them (the loaded
    recipe names plus ``run``).
    """
    toks = _path_tokens(text)
    prefix: list[str] = []
    cycle: Optional[list[str]] = None
    i = 0
    while i < len(toks) and toks[i] not in "()+":
        prefix.append(toks[i])
        i += 1
    if i < len(toks):
        if toks[i] != "(":
            raise PathSyntaxError(f"unexpected {toks[i]!r} in path")
        i += 1
        cycle = []
        while i < len(toks) and toks[i] not in "()+":
            cycle.append(toks[i])
            i += 1
        if i >= len(toks) or toks[i] != ")":
            raise PathSyntaxError("unclosed '(' in path")
        i += 1
        if i >= len(toks) or toks[i] != "+":
            raise PathSyntaxError("repetition group must be followed by '+'")
        i += 1
        if not cycle:
            raise PathSyntaxError("empty repetition group")
        if i != len(toks):
            raise PathSyntaxError("repetition group must be final")
    if known_ops is not None:
        known = set(known_ops)
        for name in list(prefix) + list(cycle or []):
            if name not in known:
                raise PathSyntaxError(f"unknown operation name '{name}'")
    return PathExpr(tuple(prefix), tuple(cycle) if cycle is not None else None)


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
    def q0(self) -> int:
        return 0

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


def as_path_expr(a: PathAutomaton) -> PathExpr:
    if a.back_target is None:
        return PathExpr(a.labels, None)
    return PathExpr(a.labels[:a.back_target], a.labels[a.back_target:])


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
    if q < a.back_target:
        return PathExpr(a.labels[q:a.back_target], a.labels[a.back_target:])
    if q == a.back_target:
        return PathExpr((), a.labels[a.back_target:])
    return PathExpr(a.labels[q:], a.labels[a.back_target:])
