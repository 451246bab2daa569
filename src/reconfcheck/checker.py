"""Mark-based property checking over lasso automata.

The traversal mirrors a model checker's marking discipline: every operator
instance owns a fresh mark map and walks the automaton in ``_Walk.run``,
taking each transition at most twice (``unchecked -> again -> checked``), so
any check takes at most 2|Q| transitions per instance; ``eventually`` and
``before`` instances stop earlier, at their run's repeat.  Each transition
reaches the configuration the walk is handed: an operation applied, or a
window model.

Soundness over the repeated cycle rests on an idempotence gate: before
checking a formula on a lasso, the composed cycle is applied twice at its
entry configuration and the results compared (parameter values erased when
the formula never reads parameters).  A cycle failing the gate yields an
``unknown`` verdict unless a step budget is set: the same walk then judges
the window explored within the budget, as a lasso or as a cut path.
"""

from __future__ import annotations

import enum
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Optional

# model_digest stays importable because perfbench/tracer.py rebinds it here
from .adl import AdlValidationError, model_digest, model_digester  # noqa: F401
from .ftpl import (
    After,
    Always,
    Before,
    Eventually,
    EventSpec,
    FtplFormula,
    TraceProperty,
    erasure_invariant,
    event_holds,
    formula_events,
    print_cp,
)
# the walk compiles properties and the unfolder erases parameter values; the
# names stay importable because perfbench/tracer.py rebinds them in this module
from .model import CompiledCp, ComponentModel, ConfigProperty, compile_cp, \
    erase_param_values, eval_cp, validate_model  # noqa: F401
# oracle_eval_detailed stays importable because perfbench/tracer.py rebinds it here
from .oracle import ConcreteLasso, LassoStep, oracle_eval_detailed, oracle_verdict  # noqa: F401
from .pathspec import PathAutomaton, PathExpr, residual_from
from .reconfig import EvolutionOperation, Unfolding, apply_evolution, apply_sequence, \
    is_idempotent_sequence, run_path

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

REASON_BUDGET = "step-budget-exhausted"
REASON_CYCLE = "non-idempotent-cycle"


class CheckError(Exception):
    """Unknown operation names, or, as :class:`OracleDisagreement`, a failed
    cross-check; an invalid initial model raises ``AdlValidationError``."""


class OracleDisagreement(CheckError):
    """The brute-force oracle reached the opposite verdict."""


@dataclass(frozen=True)
class WitnessStep:
    state: int
    label: str  # empty on the initial configuration
    digest: str


@dataclass(frozen=True)
class TraceWitness:
    steps: tuple[WitnessStep, ...]
    violation_index: int
    violated: str


@dataclass(frozen=True)
class CheckStats:
    transitions_applied: int
    cp_evaluations: int
    max_instance_transitions: int


@dataclass(frozen=True)
class CheckOptions:
    """max_steps bounds the total transitions applied while exploring (the
    idempotence gate's own applications are not charged against it)."""

    max_steps: Optional[int] = None
    oracle_crosscheck: bool = False

    def __post_init__(self):
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be at least 1 when present")


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[TraceWitness] = None
    reason: Optional[str] = None
    residual: Optional[PathExpr] = None
    reached: Optional[ComponentModel] = None
    stats: Optional[CheckStats] = None

    @property
    def is_holds(self) -> bool:
        return self.status == HOLDS

    @property
    def is_fails(self) -> bool:
        return self.status == FAILS

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN


class _Violation(Exception):
    """A violation at position ``index`` of the run from the initial state.

    Every path is deterministic, so the witness is the run's first
    ``length`` configurations (``index + 1`` unless given): the walk keeps
    no models or digests for it, and ``check`` replays them on demand.
    """

    def __init__(self, index: int, violated: str, length: Optional[int] = None):
        super().__init__(violated)
        self.index = index
        self.violated = violated
        self.length = index + 1 if length is None else length


class _Budget(Exception):
    def __init__(self, state: int, model: ComponentModel):
        super().__init__("step budget exhausted")
        self.state = state
        self.model = model


class _Mark(enum.Enum):
    UNCHECKED = "unchecked"
    AGAIN = "again"
    CHECKED = "checked"


def _fresh_marks(a: PathAutomaton) -> list[_Mark]:
    """All states unchecked: one operator instance's marks before it walks."""
    return [_Mark.UNCHECKED] * a.n_states


class _Walk:
    """Shared walk context: takes transitions, charges budgets and counters.

    ``erased`` switches stabilization detection (in the unfolding
    operators) to parameter-erased comparison — the right notion when the
    cycle was admitted through the erased idempotence gate, in which case
    the formula cannot observe parameter values anyway.

    Properties are compiled on first use and kept for the walk only, so a
    compiled closure lives exactly as long as one check.
    """

    def __init__(self, a: PathAutomaton, reach: Callable[..., ComponentModel],
                 max_steps: Optional[int], erased: bool = False):
        self.a = a
        self.reach = reach
        self.remaining = max_steps
        self.erased = erased
        self.transitions = 0
        self.cp_evals = 0
        self.max_instance = 0
        self.compiled: dict[ConfigProperty, CompiledCp] = {}

    def run(self, q: int, c: ComponentModel) -> Iterator[tuple[str, int, ComponentModel]]:
        """The transitions one operator instance takes from (q, c), as
        (label, target, ``reach(label, target, c)``).

        Each state is marked ``unchecked -> again -> checked`` as it is left,
        so the run ends at a terminal state or at a state left twice: an
        operation may change the model on one pass and not the next, and the
        second pass's configurations repeat forever after (given the gate).
        Each transition is charged against the step budget before it is
        taken, counted, and held to the instance's 2·|Q| bound."""
        a, taken = self.a, 0
        marks = _fresh_marks(a)
        start, earlier = q, Counter()  # the marks of the states before q
        while (nxt := a.succ(q)) is not None:
            mk = marks[q]
            if mk is _Mark.CHECKED:
                return  # both passes taken
            # from the initial state, every earlier state is left before this one,
            # and none is left twice before this one is left once
            if start == 0 and (earlier[_Mark.UNCHECKED]
                               or mk is _Mark.UNCHECKED and earlier[_Mark.CHECKED]):
                raise AssertionError("mark-order invariant: an earlier state is unchecked, "
                                     "or checked while this one is unchecked")
            marks[q] = _Mark.AGAIN if mk is _Mark.UNCHECKED else _Mark.CHECKED
            earlier[marks[q]] += 1  # as stored, so a lost write is seen
            if self.remaining is not None:
                if self.remaining == 0:
                    raise _Budget(q, c)
                self.remaining -= 1
            label, q2 = nxt
            c = self.reach(label, q2, c)
            if q2 <= q:  # the back edge: recount once per lap
                earlier = Counter(marks[:q2])
            q = q2
            taken += 1
            self.transitions += 1
            if taken > self.max_instance:
                self.max_instance = taken
            # termination invariant: two traversals suffice for any operator
            if taken > 2 * a.n_states:
                raise AssertionError(f"operator instance applied {taken} transitions, "
                                     f"exceeding 2*|Q| = {2 * a.n_states}")
            yield label, q, c

    def unfold(self, q: int, c: ComponentModel) -> Unfolding:
        """The run from (q, c) as one operator instance walks it.  Its repeat
        comes before the marks stop it: under the gate, the transition into
        two laps past the entry leaves a state for the second time, and on a
        window every configuration repeats one lap later."""
        return Unfolding(self.a, q, c, self.run(q, c), erased=self.erased)

    def eval_cp(self, cp: ConfigProperty, c: ComponentModel) -> bool:
        self.cp_evals += 1
        test = self.compiled.get(cp)
        if test is None:
            test = self.compiled[cp] = compile_cp(cp)
        return test(c, {})

    def stats(self) -> CheckStats:
        return CheckStats(self.transitions, self.cp_evals, self.max_instance)


def is_suffix_monotone(f: FtplFormula) -> bool:
    """Whether truth of ``f`` on a suffix carries over to later suffixes.

    ``always`` loses configurations as the start index grows, ``after``
    loses event occurrences, and ``before tr`` with a universal trace loses
    both occurrences and segment length — all monotone.  ``eventually``
    (bare, or as a before-trace) can lose its only witness, so the first
    event occurrence does not subsume later ones.
    """
    if isinstance(f, Eventually):
        return False
    if isinstance(f, Before):
        return isinstance(f.trace, Always)
    return True


def _after_loop(f: After, walk: _Walk, q: int, c: ComponentModel, pos: int):
    """Check ``f.inner`` after occurrences of ``f.event`` from (q, c).

    When ``f.inner`` is suffix-monotone the first occurrence decides (the
    classic first-occurrence rule); otherwise every occurrence met during
    the marked run is checked.  ``pos`` is the run position of (q, c).
    """
    collect_all = not is_suffix_monotone(f.inner)
    pending: list[tuple[int, ComponentModel, int]] = []
    for pos, (label, q2, c2) in enumerate(walk.run(q, c), pos + 1):
        if event_holds(c, c2, label, f.event, pos):
            pending.append((q2, c2, pos))
            if not collect_all:
                break
        c = c2
    # every occurrence kept must pass; none at all is vacuous truth
    for q2, c2, pos2 in pending:
        _eval_formula(f.inner, walk, q2, c2, pos2)


def _always_loop(cp: ConfigProperty, walk: _Walk, q: int, c: ComponentModel, pos: int):
    """Check ``cp`` on (q, c) and on every configuration of its marked run."""
    run = (c2 for _label, _q, c2 in walk.run(q, c))
    for pos, c in enumerate(chain([c], run), pos):
        if not walk.eval_cp(cp, c):
            raise _Violation(pos, f"always [{print_cp(cp)}] violated")


def _assert_settled(run: Unfolding):
    """An exhausted instance unfolding has a period or a terminal state (see _Walk.unfold)."""
    if run.period_start is None and not run.complete:
        raise AssertionError("instance unfolding ended with neither a period nor a terminal state")


def _eventually_scan(cp: ConfigProperty, walk: _Walk, q: int, c: ComponentModel, pos: int):
    """Passes as soon as one reachable configuration satisfies ``cp``.

    Unfolds until the (state, model) pair repeats or the path ends; each
    state is applied at most twice on the way.
    """
    run = walk.unfold(q, c)
    for i, (_q, _label, c) in enumerate(run):
        if walk.eval_cp(cp, c):
            return
    _assert_settled(run)
    how = "on the finite path" if run.complete else "(cycle stabilized)"
    raise _Violation(pos + i, f"eventually [{print_cp(cp)}] never satisfied {how}")


def _before_check(e: EventSpec, tr: TraceProperty, walk: _Walk, q: int,
                  c: ComponentModel, pos: int):
    """Every occurrence of ``e`` must be preceded by a segment satisfying
    the trace property.

    Judged on the stabilized window of ``n`` configurations with
    wrap-around indexing: occurrences ``1..n-1`` on a finite path, and
    ``1..n+2t`` past a period of length ``t``, beyond which every
    segment's contents repeat an examined one.  The segments of successive
    occurrences are nested prefixes of the run, so one forward scan
    decides: ``always`` fails at the first falsifying configuration once
    an occurrence follows it, ``eventually`` holds from the first
    satisfying one on and fails at an occurrence that comes before it.
    Each window configuration is evaluated at most once.  When the window
    was cut on parameter-erased models, the changed/unchanged test of an
    event compares erased models too, as a wrapped representative may
    differ from the true configuration in its parameters.
    """
    run = walk.unfold(q, c)
    states, _labels, models = zip(*run)
    _assert_settled(run)
    keys, ps, n = run.keys, run.period_start, len(models)
    t = 0 if ps is None else n - ps
    last = n - 1 if ps is None else n + 2 * t
    labels = walk.a.labels
    is_always = isinstance(tr, Always)
    evaluated = 0  # configurations [0, evaluated) are known to pass
    for i in range(1, last + 1):
        prev = i - 1 if i - 1 < n else ps + (i - 1 - ps) % t
        label = labels[states[prev]]
        if label != e.op_name:
            continue
        cur = i if i < n else ps + (i - ps) % t
        if not event_holds(keys[prev], keys[cur], label, e, i):
            continue
        # the occurrence's segment is [0, i-1]; indices from n on repeat earlier ones
        while evaluated < min(i, n):
            holds = walk.eval_cp(tr.cp, models[evaluated])
            if holds and not is_always:
                return  # and so in every later segment
            if not holds and is_always:
                raise _Violation(pos + evaluated,
                                 f"before {e.op_name} {e.modality}: always "
                                 f"[{print_cp(tr.cp)}] violated in preceding segment",
                                 length=pos + n)
            evaluated += 1
        if not is_always:
            raise _Violation(pos + cur,
                             f"before {e.op_name} {e.modality}: eventually "
                             f"[{print_cp(tr.cp)}] unsatisfied in preceding segment",
                             length=pos + n)
        if evaluated == n:
            return  # every configuration passed: so does every later segment


def _eval_formula(f: FtplFormula, walk: _Walk, q: int, c: ComponentModel, pos: int):
    """Check ``f`` at run position ``pos`` with a fresh mark map per operator
    node; a violation raises :class:`_Violation`."""
    if isinstance(f, After):
        _after_loop(f, walk, q, c, pos)
    elif isinstance(f, Before):
        _before_check(f.event, f.trace, walk, q, c, pos)
    elif isinstance(f, Always):
        _always_loop(f.cp, walk, q, c, pos)
    elif isinstance(f, Eventually):
        _eventually_scan(f.cp, walk, q, c, pos)
    else:
        raise TypeError(f"not a formula node: {f!r}")


# --- the checker entry point -------------------------------------------------------

def cycle_entry_model(a: PathAutomaton, c0: ComponentModel,
                      ops: Mapping[str, EvolutionOperation]) -> ComponentModel:
    return apply_sequence([ops[l] for l in a.prefix_labels()], c0)


def _replay(a: PathAutomaton, ops: Mapping[str, EvolutionOperation],
            c0: ComponentModel, length: int) -> Iterator[tuple[int, str, ComponentModel]]:
    """The first ``length`` (state, incoming label, configuration) triples of
    the run from the initial state; operations are pure, so this rebuilds
    exactly the configurations the walk saw."""
    yield 0, "", c0
    for label, q, c in islice(run_path(a, ops, 0, c0), length - 1):
        yield q, label, c


def _unfold(a: PathAutomaton, c0: ComponentModel,
            ops: Mapping[str, EvolutionOperation], max_steps: int) -> ConcreteLasso:
    """The window of a lasso the gate refused: the run from the initial
    state for at most ``max_steps`` transitions, cut short at the path's
    end or before an exact (state, model) repeat."""
    run = Unfolding(a, 0, c0, islice(run_path(a, ops, 0, c0), min(max_steps, sys.maxsize)))
    entries = tuple(LassoStep(q, c, label) for q, label, c in run)
    return ConcreteLasso(a, entries, run.period_start, run.complete)


def _witnessed(f: FtplFormula, holds: bool) -> bool:
    """Whether the walk's verdict on a cut window stands: a prefix proves true only
    a bare ``eventually``, and proves no ``eventually`` false, nor ``after``s over one."""
    while not holds and isinstance(f, After):
        f = f.inner
    return isinstance(f, Eventually) == holds


def _witness(configs: Iterable[tuple[int, str, ComponentModel]], index: int,
             violated: str) -> TraceWitness:
    digest = model_digester()  # successive configurations share components
    steps = tuple(WitnessStep(q, label, digest(c)) for q, label, c in configs)
    return TraceWitness(steps, index, violated)


def check(f: FtplFormula, a: PathAutomaton, c0: ComponentModel,
          ops: Mapping[str, EvolutionOperation],
          opts: Optional[CheckOptions] = None) -> Verdict:
    """Check a temporal formula along a reconfiguration path.

    Starts from the automaton's initial state with ``c0``.  Lassos are
    admitted through the idempotence gate; a failing gate yields
    ``unknown(non-idempotent-cycle)`` unless a step budget is set, in which
    case the walk judges the window explorable within the budget.
    A budget exhausted mid-walk yields ``unknown(step-budget-exhausted)``
    carrying the unexplored residual path and the configuration reached, so
    the check can be relaunched from there.
    """
    opts = opts or CheckOptions()
    bad = validate_model(c0)
    if bad:
        raise AdlValidationError(bad)
    for label in a.labels:
        if label not in ops:
            raise CheckError(f"path label '{label}' is not a known operation")
    for event in formula_events(f):
        if event.op_name not in ops:
            raise CheckError(f"event operation '{event.op_name}' is not a known operation")

    # a formula that cannot observe parameter values (neither through
    # property leaves nor through events on parameter-updating operations)
    # may ignore parameter drift when judging cycle idempotence
    erased = a.has_cycle and erasure_invariant(f, ops)
    gate_ok = True
    if a.has_cycle:
        entry = cycle_entry_model(a, c0, ops)
        cycle_ops = [ops[l] for l in a.cycle_labels()]
        gate_ok = is_idempotent_sequence(cycle_ops, entry, ignore_params=erased)

    if not gate_ok and opts.max_steps is None:
        # nothing was explored: the residual is the whole path
        return Verdict(UNKNOWN, reason=REASON_CYCLE, residual=residual_from(a, 0),
                       reached=c0, stats=CheckStats(0, 0, 0))

    if gate_ok:
        # apply_evolution is read per call, so perfbench/tracer.py's rebinding counts the walk
        walk = _Walk(a, lambda label, _q, c: apply_evolution(ops[label], c).result,
                     opts.max_steps, erased=erased)
        try:
            _eval_formula(f, walk, 0, c0, 0)
            verdict = Verdict(HOLDS, stats=walk.stats())
        except _Violation as v:
            witness = _witness(_replay(a, ops, c0, v.length), v.index, v.violated)
            verdict = Verdict(FAILS, witness=witness, stats=walk.stats())
        except _Budget as b:
            verdict = Verdict(UNKNOWN, reason=REASON_BUDGET,
                              residual=residual_from(a, b.state), reached=b.model,
                              stats=walk.stats())
    else:
        # a non-idempotent cycle, bounded: the window repeats exactly or is cut by the budget
        lasso = _unfold(a, c0, ops, opts.max_steps)
        entries, ps, n = lasso.entries, lasso.period_start, len(lasso.entries)
        labels = tuple(a.labels[s.state] for s in entries[:n if ps is not None else n - 1])
        # state i is window position i, reached in _unfold; an exact repeat needs no gate
        walk = _Walk(PathAutomaton(labels, n, ps), lambda _label, q, _c: entries[q].model, None)
        try:
            _eval_formula(f, walk, 0, c0, 0)
            v = None
        except _Violation as violation:
            v = violation
        stats, last = CheckStats(n - 1, walk.cp_evals, n - 1), entries[-1]
        if ps is None and not _witnessed(f, v is None):
            verdict = Verdict(UNKNOWN, reason=REASON_BUDGET,
                              residual=residual_from(a, last.state), reached=last.model,
                              stats=stats)
        elif v is None:
            verdict = Verdict(HOLDS, stats=stats)
        else:
            i = v.index if v.index < n else ps + (v.index - ps) % (n - ps)  # into the period
            witness = _witness(((s.state, s.incoming_label or "", s.model)
                                for s in entries), i, v.violated)
            verdict = Verdict(FAILS, witness=witness, stats=stats)

    if opts.oracle_crosscheck and verdict.status in (HOLDS, FAILS):
        reference = oracle_verdict(f, a, c0, ops)
        if reference is not None and reference != verdict.is_holds:
            raise OracleDisagreement(
                f"oracle cross-check disagreement: checker says {verdict.status}, "
                f"oracle says {'holds' if reference else 'fails'}")
    return verdict
