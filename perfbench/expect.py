"""Expected outcomes, and the checks that compare each verdict against them.

No expectation here comes from ``check``.  Scaled cases carry theirs from
construction (``scaled.py``); generated small cases get theirs from the
brute-force oracle (asked after the timed check, when its outcome needs it)
and from an idempotence test written out below; the HTTP cases carry
hand-written ones.  Witnesses are checked by replaying their
labels from the initial model and hashing the canonical text of every
configuration, which is how ``reconfcheck simulate`` dumps are named.

The functions bound here are the library's own, captured at import time, so
the traced run's rebinding of module attributes never counts this file's
calls as work of a check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Optional

from reconfcheck import (
    CpEvalError,
    Verdict,
    apply_evolution,
    apply_sequence,
    build_automaton,
    erase_param_values,
    erasure_invariant,
    oracle_verdict,
    parse_formula,
    parse_model,
    parse_path,
    parse_recipes,
    print_model,
    print_path,
)

from reconfcheck import oracle as oracle_module
from reconfcheck.ftpl import After, Before
from scaled import Lasso, ScaledCase
from small import SmallCase, heavy_case

BUDGET = "unknown:step-budget-exhausted"
NON_IDEMPOTENT = "unknown:non-idempotent-cycle"
ERROR = "error"


def digest(model) -> str:
    return hashlib.sha256(print_model(model).encode()).hexdigest()[:12]


class Replay:
    """The concrete configuration sequence of a path, computed on demand."""

    def __init__(self, model, ops, automaton):
        self.ops = ops
        self.a = automaton
        self.configs = [model]
        self.states = [0]
        self._digests: list[str] = []

    def extend(self, length: int) -> int:
        """Make positions 0..length-1 available; returns how many exist."""
        while len(self.configs) < length:
            nxt = self.a.succ(self.states[-1])
            if nxt is None:
                break
            label, q2 = nxt
            self.configs.append(apply_evolution(self.ops[label], self.configs[-1]).result)
            self.states.append(q2)
        return len(self.configs)

    def label_into(self, pos: int) -> str:
        return self.a.labels[self.states[pos - 1]]

    def steps(self, length: int) -> list[tuple[int, str, str]]:
        """(state, incoming label, digest) for positions 0..length-1."""
        length = min(length, self.extend(length))
        while len(self._digests) < length:
            self._digests.append(digest(self.configs[len(self._digests)]))
        return [(self.states[i], self.label_into(i) if i else "", self._digests[i])
                for i in range(length)]

    def first_repeat(self) -> int:
        """First position whose (state, configuration) pair occurred before."""
        seen: dict[int, list] = {}
        pos = 0
        while True:
            if self.extend(pos + 1) <= pos:
                raise AssertionError("path ended before it repeated")
            config = self.configs[pos]
            if any(config == prev for prev in seen.get(self.states[pos], ())):
                return pos
            seen.setdefault(self.states[pos], []).append(config)
            pos += 1


def residual_text(a, state: int) -> str:
    """Canonical text of the path left to explore from ``state``."""
    labels = list(a.labels)
    if a.back_target is None:
        return " ".join(labels[state:])
    cycle = "(" + " ".join(labels[a.back_target:]) + ")+"
    head = labels[state:a.back_target] if state < a.back_target else labels[state:]
    if state == a.back_target:
        head = []
    return " ".join(head + [cycle])


def _gated(model, ops, a, formula) -> bool:
    """The idempotence gate, decided independently of the checker."""
    if not a.has_cycle:
        return True
    entry = apply_sequence([ops[label] for label in a.prefix_labels()], model)
    cycle = [ops[label] for label in a.cycle_labels()]
    once = apply_sequence(cycle, entry)
    twice = apply_sequence(cycle, once)
    if erasure_invariant(formula, ops):
        once, twice = erase_param_values(once), erase_param_values(twice)
    return once == twice


class LazyReplay:
    """A ``Replay`` of a small case's texts, parsed on first use."""

    def __init__(self, case: SmallCase):
        self._case = case
        self._replay: Optional[Replay] = None

    def __getattr__(self, name: str):
        if self._replay is None:
            model, ops, a, _formula = _load(self._case)
            self._replay = Replay(model, ops, a)
        return getattr(self._replay, name)


class OracleAnswer:
    """The brute-force oracle's verdict on one case, computed on first use.

    It is asked only when a check's outcome is not allowed without it (a
    bounded check may always exhaust its budget), never inside the timed
    part of a check, and once for a case and all its renamed copies.
    """

    def __init__(self, formula, a, model, ops):
        self._args = (formula, a, model, ops)
        self._key: Optional[str] = None
        self._asked = False

    def key(self) -> Optional[str]:
        """``holds``, ``fails``, ``error``, or None when the oracle cannot decide."""
        if not self._asked:
            try:
                truth = oracle_verdict(*self._args)
            except CpEvalError:
                truth = ERROR
            self._key = {True: "holds", False: "fails", ERROR: ERROR, None: None}[truth]
            self._asked = True
        return self._key


@dataclass
class Expected:
    """What a check must answer, plus what is needed to verify it."""

    allowed: frozenset[str]
    gated: bool
    n_states: int
    max_steps: Optional[int]
    replay: Optional[Replay | LazyReplay]
    violation: Optional[int] = None
    violation_state: Optional[int] = None
    witness_len: Optional[int] = None
    violated: Optional[str] = None
    residual: Optional[str] = None
    reached_digest: Optional[str] = None
    witness: list = field(default_factory=list)
    oracle: Optional[OracleAnswer] = None  # allows its verdict as well

    def admits(self, key: str) -> bool:
        return key in self.allowed or (self.oracle is not None and self.oracle.key() == key)

    def expected_keys(self) -> list[str]:
        keys = set(self.allowed)
        if self.oracle is not None and self.oracle.key() is not None:
            keys.add(self.oracle.key())
        return sorted(keys)


def outcome_key(v: Verdict) -> str:
    return v.status if v.status != "unknown" else f"unknown:{v.reason}"


# --- small-mix -----------------------------------------------------------------

def _load(case: SmallCase):
    recipes = parse_recipes(case.ops)
    return (parse_model(case.arch), recipes.operation_table(),
            build_automaton(parse_path(case.rp, known_ops=recipes.names())),
            parse_formula(case.formula, known_ops=recipes.names()))


def expect_small(case: SmallCase) -> Expected:
    """Expectation of one library check, made untimed during set-up; the
    oracle's verdict is asked later, and only if needed (``OracleAnswer``)."""
    model, ops, a, formula = _load(case)
    gated = _gated(model, ops, a, formula)
    exp = Expected(frozenset(), gated, a.n_states, case.max_steps, Replay(model, ops, a),
                   violation_state=case.violation_state, witness_len=case.witness_len)
    if case.expect is not None:
        key = case.expect if case.reason is None else f"{case.expect}:{case.reason}"
        exp.allowed = frozenset({key})
        return exp
    if not gated and case.max_steps is None:
        exp.allowed = frozenset({NON_IDEMPOTENT})
        return exp
    exp.allowed = frozenset() if case.max_steps is None else frozenset({BUDGET})
    exp.oracle = OracleAnswer(formula, a, model, ops)
    return exp


HEAVY_LITERALS = 100_000


def is_oracle_heavy(case: SmallCase) -> bool:
    """Whether a case belongs to the oracle's costliest class.

    That is an unbounded check whose formula nests two temporal operators,
    whose cycle passes the gate (so ``check`` cross-checks it with the
    oracle), and on which ``oracle_verdict`` evaluates at least
    ``HEAVY_LITERALS`` literals (configuration properties and event tests).
    A count, not a time, so the class does not depend on the machine.
    """
    if case.max_steps is not None:
        return False
    model, ops, a, formula = _load(case)
    if not isinstance(formula, After) or not isinstance(formula.inner, (After, Before)):
        return False
    if not _gated(model, ops, a, formula):
        return False
    counted = [0]

    def counting(function):
        def wrapper(*args, **kwargs):
            counted[0] += 1
            return function(*args, **kwargs)
        return wrapper

    saved = oracle_module.eval_cp, oracle_module.event_holds
    oracle_module.eval_cp, oracle_module.event_holds = map(counting, saved)
    try:
        oracle_verdict(formula, a, model, ops)
    except CpEvalError:
        return False
    finally:
        oracle_module.eval_cp, oracle_module.event_holds = saved
    return counted[0] >= HEAVY_LITERALS


def heavy_draws(count: int) -> tuple[int, ...]:
    """The first ``count`` draws of ``small.heavy_case`` that are oracle-heavy."""
    found: list[int] = []
    i = 0
    while len(found) < count:
        if is_oracle_heavy(heavy_case(i)):
            found.append(i)
        i += 1
    return tuple(found)


def expect_renamed(exp: Expected, copy: SmallCase) -> Expected:
    """``exp`` for a renamed copy of its case (``small.renamed``): the same
    answer, with witnesses replayed on the copy's own texts."""
    return replace(exp, replay=LazyReplay(copy))


def _check_witness(steps: list[tuple[int, str, str]], index: int, exp: Expected) -> Optional[str]:
    """A witness must be the path's own prefix, with matching digests."""
    if not steps:
        return "empty witness"
    expected = exp.replay.steps(len(steps))
    if len(expected) < len(steps):
        return f"witness has {len(steps)} steps, the path only {len(expected)}"
    if steps != expected:
        bad = next(i for i, (s, e) in enumerate(zip(steps, expected)) if s != e)
        return f"witness step {bad} is {steps[bad]}, replay gives {expected[bad]}"
    if not 0 <= index < len(steps):
        return f"violation index {index} outside a {len(steps)}-step witness"
    if exp.witness_len is not None and len(steps) != exp.witness_len:
        return f"witness has {len(steps)} steps, expected {exp.witness_len}"
    if exp.violation_state is not None and steps[index][0] != exp.violation_state:
        return f"violation at state {steps[index][0]}, expected {exp.violation_state}"
    return None


def _check_reached(reached_digest: str, residual: str, exp: Expected) -> Optional[str]:
    """The reached model and residual must be one replayable position."""
    horizon = exp.replay.extend((exp.max_steps or 0) + 1)
    for state, _label, dig in exp.replay.steps(horizon):
        if dig == reached_digest and residual == residual_text(exp.replay.a, state):
            return None
    return "reached model and residual match no explored position"


def bound_ratio(v: Verdict, exp: Expected) -> float:
    """Share of the applicable transition bound a check used.

    The marking walk may apply at most 2·|Q| transitions per operator
    instance.  A bounded check of a cycle that fails the gate unrolls the
    path instead, and is held to its step budget.
    """
    if exp.gated:
        return v.stats.max_instance_transitions / (2 * exp.n_states)
    if exp.max_steps is None:
        return v.stats.transitions_applied  # the gate refused the cycle: nothing may run
    return v.stats.transitions_applied / exp.max_steps


def verify_small(outcome, exp: Expected) -> Optional[str]:
    """None when the library outcome is the expected one, else why not."""
    if isinstance(outcome, BaseException):
        if isinstance(outcome, CpEvalError) and exp.admits(ERROR):
            return None
        return f"raised {type(outcome).__name__}: {outcome}"
    key = outcome_key(outcome)
    if not exp.admits(key):
        return f"verdict {key}, expected one of {exp.expected_keys()}"
    if key == BUDGET:
        if outcome.stats.transitions_applied != exp.max_steps:
            return (f"budget verdict after {outcome.stats.transitions_applied} of "
                    f"{exp.max_steps} steps")
        err = _check_reached(digest(outcome.reached), print_path(outcome.residual), exp)
        if err:
            return err
    if outcome.is_fails:
        w = outcome.witness
        err = _check_witness([(s.state, s.label, s.digest) for s in w.steps],
                             w.violation_index, exp)
        if err:
            return err
    if bound_ratio(outcome, exp) > 1:
        return f"transition bound exceeded: ratio {bound_ratio(outcome, exp):.3f}"
    return None


# --- scaled (command line) ----------------------------------------------------------

def expect_scaled(case: ScaledCase, replay: Optional[Replay]) -> Expected:
    """Expectation of one scaled check; witnesses are replayed once here.

    A ``holds`` case needs no replay and may pass None.
    """
    lasso: Lasso = case.lasso
    key = case.expect if case.reason is None else f"{case.expect}:{case.reason}"
    exp = Expected(frozenset({key}), case.max_steps is None, lasso.n_states,
                   case.max_steps, replay, violated=case.violated)
    if case.expect == "fails":
        if case.witness_rule == "violation":
            length = case.violation + 1
        elif case.witness_rule == "repeat":
            length = replay.first_repeat()
        else:
            length = case.max_steps + 1
        exp.witness = replay.steps(length)
        exp.violation = case.violation if case.violation is not None else length - 1
    if case.reason == "step-budget-exhausted":
        state, _label, exp.reached_digest = replay.steps(case.max_steps + 1)[-1]
        exp.residual = residual_text(replay.a, state)
    return exp


def verify_cli_text(code: int, out: str, exp: Expected) -> Optional[str]:
    """Text report of a scaled-holds check: verdict line, exit code, no witness."""
    lines = out.splitlines()
    if code != 0 or not lines or lines[0] != "verdict: holds":
        return f"exit {code}, output starts {lines[:1]}"
    if len(lines) != 2 or not lines[1].startswith("transitions applied: "):
        return f"unexpected report lines {lines[1:3]}"
    return None


_EXITS = {"holds": 0, "fails": 1, "unknown": 2}


def verify_cli_json(code: int, out: str, exp: Expected) -> Optional[str]:
    """JSON report of a scaled-fails-oracle check, field by field."""
    try:
        report = json.loads(out)
    except ValueError:
        return f"exit {code}, output is not JSON: {out[:80]!r}"
    key = report["verdict"] if report["verdict"] != "unknown" else \
        f"unknown:{report['reason']}"
    if key not in exp.allowed or code != _EXITS[report["verdict"]]:
        return f"verdict {key} with exit {code}, expected {sorted(exp.allowed)}"
    if report["verdict"] == "fails":
        w = report["witness"]
        steps = [(s["state"], s["label"], s["digest"]) for s in w["steps"]]
        if steps != exp.witness:
            return (f"witness of {len(steps)} steps differs from the replayed "
                    f"{len(exp.witness)}-step path")
        if w["violation_index"] != exp.violation:
            return f"violation index {w['violation_index']}, expected {exp.violation}"
        if w["violated"] != exp.violated:
            return f"violated {w['violated']!r}, expected {exp.violated!r}"
        if report["reason"] is not None:
            return f"fails verdict carries reason {report['reason']!r}"
    else:
        if report["witness"] is not None:
            return "non-failing verdict carries a witness"
        if report["residual"] != exp.residual:
            return f"residual {report['residual']!r}, expected {exp.residual!r}"
        reached = hashlib.sha256(report["reached"].encode()).hexdigest()[:12]
        if reached != exp.reached_digest:
            return "reached model differs from the replayed configuration"
    return None
