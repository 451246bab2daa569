"""Mark-based property checking over lasso automata.

The traversal mirrors a model checker's marking discipline: every operator
instance owns a fresh mark map and walks the automaton in ``_Walk.run``,
taking each transition at most twice (``unchecked -> again -> checked``), so
any check takes at most 2|Q| transitions per instance; ``eventually`` and
``before`` instances stop earlier, at their run's repeat.  Each transition
reaches the configuration the walk is handed: a position of the check's
run, or a window model.

A path is deterministic, so every configuration a check needs is a
position of one run from the initial configuration (``_Run``), extended
once per position and recorded as the change each step made.  The walk
extends it at its frontier; a nested instance that walks again positions
the run holds rebuilds each from its record, so every operation a check
applies is a step of its run.

Soundness over the repeated cycle rests on an idempotence gate: the
composed cycle F must satisfy F(F(e)) = F(e) at its entry configuration e
(parameter values erased when the formula never reads parameters).  F(e)
and F(F(e)) are positions of the run, so the gate reads them off it
(``_Gate``); only when the walk ends before reaching F(F(e)) does the gate
extend the run itself, and then only to F(e) when F(e) = e already.  A
cycle failing the gate yields an ``unknown`` verdict unless a step budget
is set: the same walk then judges the window explored within the budget,
as a lasso or as a cut path; the window takes the positions the run holds
off its records.

The step budget is charged for the walk's transitions only, never for the
gate's own applications, a window's or a proof's.

A ``fails`` witness is read off the run's records: its digests are
patched from the changes, and no operation is applied for it.  With the
oracle cross-check, a ``fails`` verdict that a finite prefix proves (an
``always`` or a ``before``, under any ``after``s) is checked against its
own proof where it is built, in ``_fails``: the walk keeps the run
positions of each event occurrence it descended through and of each
configuration that falsifies the property, and ``oracle.refutation_flaw``
checks them, and the reported index and text, on the configurations
rebuilt at those positions from the run's records.  It unfolds nothing.
Every other ``holds`` or ``fails`` verdict is recomputed by
``oracle.oracle_verdict`` at the end of :func:`check`.  Either mismatch
raises :class:`OracleDisagreement`.
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

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
from .model import Binding, CompiledCp, ComponentModel, ConfigProperty, CpEvalError, Derived, \
    compile_cp, component_sum, composed, erase_component, erase_param_values, eval_cp, \
    hold_index, validate_model  # noqa: F401
# oracle_eval_detailed stays importable because perfbench/tracer.py rebinds it here
from .oracle import ConcreteLasso, LassoStep, Refutation, oracle_eval_detailed, \
    oracle_verdict, refutation_flaw  # noqa: F401
from .pathspec import PathAutomaton, PathExpr, residual_from
# apply_sequence and is_idempotent_sequence, which nothing here calls, stay
# importable because perfbench/tracer.py rebinds them here
from .reconfig import EvolutionOperation, Unfolding, apply_evolution, apply_sequence, \
    is_idempotent_sequence, run_path  # noqa: F401
from .record import record

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

REASON_BUDGET = "step-budget-exhausted"
REASON_CYCLE = "non-idempotent-cycle"


class CheckError(Exception):
    """Unknown operation names, or, as :class:`OracleDisagreement`, a failed
    cross-check; an invalid initial model raises ``AdlValidationError``."""


class OracleDisagreement(CheckError):
    """The brute-force oracle reached the opposite verdict, or a ``fails``
    witness does not prove its violation."""


@record
class WitnessStep:
    state: int
    label: str  # empty on the initial configuration
    digest: str


@record
class TraceWitness:
    steps: tuple[WitnessStep, ...]
    violation_index: int
    violated: str


@record
class CheckStats:
    transitions_applied: int
    cp_evaluations: int
    max_instance_transitions: int


@record
class CheckOptions:
    """max_steps bounds the total transitions the walk takes while exploring;
    the applications the idempotence gate makes past the walk's end, and
    those that extend the check's run for a window or a proof, are not
    charged against it.

    oracle_crosscheck checks a ``holds`` or ``fails`` verdict independently.
    A ``fails`` of an ``always`` or a ``before``, under any ``after``s, is
    proof-checked: each event occurrence and falsifying configuration the
    walk names, their order, the reported violation index and the violated
    text, on the configurations rebuilt from the check's run (extended only
    for a position past its frontier) with the oracle's event test and
    evaluator.  Every other verdict is recomputed by the oracle's unfolding
    and its status compared.  A mismatch raises
    :class:`OracleDisagreement`."""

    max_steps: Optional[int] = None
    oracle_crosscheck: bool = False

    def __post_init__(self):
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be at least 1 when present")


@record
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
    no models or digests for it, and ``check`` reads them off its run.

    A violation of an ``always`` or a ``before`` keeps its proof in run
    positions (see :class:`~reconfcheck.oracle.Refutation`): ``occurrence``,
    a ``before``'s event, ``falsified``, where the property is false, and
    ``afters``, which each ``_after_loop`` it passes on its way out puts its
    occurrence in front of.
    """

    def __init__(self, index: int, violated: str, length: Optional[int] = None,
                 occurrence: Optional[int] = None, falsified: range = range(0)):
        super().__init__(violated)
        self.index = index
        self.violated = violated
        self.length = index + 1 if length is None else length
        self.afters: tuple[int, ...] = ()
        self.occurrence = occurrence
        self.falsified = falsified

    def proof(self) -> Refutation:
        return Refutation(self.afters, self.occurrence, self.falsified)


class _Budget(Exception):
    def __init__(self, state: int, model: ComponentModel):
        super().__init__("step budget exhausted")
        self.state = state
        self.model = model


class _Refused(Exception):
    """The idempotence gate refused the cycle: the walk stops at once."""


def _step(op: EvolutionOperation, m: ComponentModel) -> tuple[ComponentModel, list[Derived]]:
    """``op`` applied to ``m``, the newest model of a run, which holds the
    run's index, with what :func:`~reconfcheck.model.derive_model` changed
    for it, read off the index as it goes: O(changed), and nothing for a
    step that changes nothing."""
    index = m._index
    index.log = log = []
    try:
        return apply_evolution(op, m).result, log
    finally:
        index.log = None  # nothing else the index does is this step's


class _Run:
    """The run of a check from the initial configuration, recorded as changes.

    A path is deterministic, so every configuration a check reads is a
    position of this one run.  It keeps the initial model ``c0``, the
    newest model, which holds the run's
    :class:`~reconfcheck.model.ModelIndex` from position 0 on, and in
    ``steps``, for each position it reached, the label into it, its state,
    the changes :func:`~reconfcheck.model.derive_model` made on the way
    from the position before (:func:`_step`) and the component sum it kept
    (:func:`~reconfcheck.model.component_sum`): a version list of deltas
    (Driscoll, Sarnak, Sleator & Tarjan, "Making data structures
    persistent", JCSS 1989).  Every other position is rebuilt from the
    records (:meth:`reach`, :meth:`configurations`).

    Nothing else in a check derives from the newest model with its index:
    a rebuild carries none (:meth:`~reconfcheck.model.Change.onto`), and
    the oracle's own ``run_path`` starts from ``c0`` only once the check's
    run is done.  So the index moves with each step, and each of its parts
    is built at most once per check.
    """

    def __init__(self, a: PathAutomaton, ops: Mapping[str, EvolutionOperation],
                 c0: ComponentModel):
        self.a, self.ops, self.c0 = a, ops, c0
        hold_index(c0)
        self.newest = c0
        self.steps: list[tuple[str, int, list[Derived], int]] = [("", 0, [], component_sum(c0))]
        # the cycle's entry e, kept from when the run reaches position P
        self.entry: Optional[ComponentModel] = c0 if a.back_target == 0 else None

    def reach(self, label: str, q: int, c: ComponentModel, pos: int) -> ComponentModel:
        """The configuration at position ``pos``, reached over ``label`` into
        state ``q`` from ``c``, the configuration at ``pos - 1``.  A position
        the run holds, which a nested operator instance walks again, is
        rebuilt from its record onto ``c``, with one ``derive_model`` and no
        operation; the frontier's step is taken from the newest model and
        recorded."""
        if pos < len(self.steps):
            return composed([self.steps[pos][2]]).onto(c)
        return self._take(label, q)

    def _take(self, label: str, q: int) -> ComponentModel:
        """The step over ``label`` into state ``q`` from the newest model, recorded."""
        new, log = _step(self.ops[label], self.newest)
        if len(self.steps) == self.a.back_target:
            self.entry = new
        self.steps.append((label, q, log, component_sum(new)))
        self.newest = new
        return new

    def extend_to(self, pos: int) -> bool:
        """Whether the run reaches position ``pos``, taking the steps it
        still lacks: False if the path ends before."""
        steps = self.steps
        while len(steps) <= pos:
            nxt = self.a.succ(steps[-1][1])
            if nxt is None:
                return False
            self._take(*nxt)
        return True

    def configurations(self, positions: Iterable[int]) -> Iterator[tuple[int, ComponentModel]]:
        """(position, configuration) for each of ``positions``, increasing,
        that the path reaches.  The frontier's is the newest model.  Any
        other is rebuilt from the one yielded last (``c0`` at first) by the
        changes since, composed in the order they were made, with one
        ``derive_model``.  A position past the frontier extends the run
        first."""
        at, c, steps = 0, self.c0, self.steps
        for pos in positions:
            if not self.extend_to(pos):
                return
            if pos == len(steps) - 1:
                c = self.newest
            elif pos > at:
                c = composed(log for _label, _q, log, _sum in steps[at + 1:pos + 1]).onto(c)
            at = pos
            yield pos, c


def _same(once: ComponentModel, twice: ComponentModel, erased: bool) -> bool:
    """Whether F(F(e)) = F(e), with parameter values erased when ``erased``."""
    if erased:
        once, twice = erase_param_values(once), erase_param_values(twice)
    return once == twice


def _cycle_ends(run: _Run) -> tuple[ComponentModel, ComponentModel]:
    """F(e) and F(F(e)), run positions P+|C| and P+2|C|, where P, the prefix
    length, is the cycle's entry e."""
    a = run.a
    (_, once), (_, twice) = run.configurations((a.n_states, 2 * a.n_states - a.back_target))
    return once, twice


def _lap_fixed(run: _Run, erased: bool) -> bool:
    """Whether F(e) = e, with parameter values erased when ``erased``, on
    ``run``, which holds position P+|C|: read off the records of the
    cycle's first lap, composed, each id, binding and delegation it touched
    against its value in the entry model, so in time proportional to what
    the lap changed.

    Either way F(F(e)) = F(e) follows.  Exactly, F(F(e)) = F(e) = e, as the
    path is deterministic.  With values erased, F(e) and e differ at most in
    parameter values, and the erased result of every operation depends only
    on its erased input: no precondition reads a parameter value (a ``set``
    compares the value it computes with the one it replaces, and either way
    the erased results agree), and a ``set`` changes at most the value it
    writes.  So F(F(e)) and F(e) differ at most in parameter values too.
    """
    a, e = run.a, run.entry
    lap = composed(log for _label, _q, log, _sum in run.steps[a.back_target + 1:a.n_states + 1])
    comps, bindings = e.components, e.bindings
    for cid, c in lap.components.items():
        was = comps.get(cid)
        if c != was and (not erased or c is None or was is None
                         or erase_component(c) != erase_component(was)):
            return False
    return (all((b in bindings) == present for b, present in lap.bindings.items())
            and e.delegations.isdisjoint(lap.uncoupled))


class _Gate:
    """The idempotence gate, read off the check's run: at P+2|C| it
    compares F(e) and F(F(e)) as ``reconfig.is_idempotent_sequence`` does,
    erased when ``erased``."""

    def __init__(self, run: _Run, erased: bool):
        self.run, self.erased = run, erased
        self.twice_at = 2 * run.a.n_states - run.a.back_target  # P + 2|C|
        self.admits: Optional[bool] = None

    def decide(self) -> bool:
        """Whether the gate admits the cycle.  A walk that ended before
        P+2|C| leaves the run to extend here: to P+|C|, which admits when
        F(e) = e (:func:`_lap_fixed`), and on to P+2|C| only when not."""
        if self.admits is None:
            run = self.run
            if (len(run.steps) <= self.twice_at and run.extend_to(run.a.n_states)
                    and _lap_fixed(run, self.erased)):
                self.admits = True
            else:
                self.admits = _same(*_cycle_ends(run), self.erased)
        return self.admits


class _Mark(enum.Enum):
    UNCHECKED = "unchecked"
    AGAIN = "again"
    CHECKED = "checked"


def _fresh_marks(a: PathAutomaton) -> list[_Mark]:
    """All states unchecked: one operator instance's marks before it walks."""
    return [_Mark.UNCHECKED] * a.n_states


class _Walk:
    """Shared walk context: takes transitions, charges budgets and counters.

    An erased ``gate`` switches stabilization detection (in the unfolding
    operators) to parameter-erased comparison — the right notion when the
    cycle was admitted through the erased idempotence gate, in which case
    the formula cannot observe parameter values anyway.

    Properties are compiled on first use and kept for the walk.  A compiled
    property keeps nothing from one model to the next.
    """

    def __init__(self, a: PathAutomaton, reach: Callable[[str, int, ComponentModel, int],
                                                         ComponentModel],
                 max_steps: Optional[int], gate: Optional[_Gate] = None):
        self.a = a
        self.reach = reach
        self.remaining = max_steps
        self.gate = gate
        self.erased = gate is not None and gate.erased
        self.transitions = 0
        self.cp_evals = 0
        self.max_instance = 0
        self.compiled: dict[ConfigProperty, CompiledCp] = {}

    def run(self, q: int, c: ComponentModel, pos: int) -> Iterator[tuple[str, int, ComponentModel]]:
        """The transitions one operator instance takes from (q, c) at run
        position ``pos``, as (label, target, configuration), the
        configuration ``reach(label, target, c, pos + 1)`` from the one before.

        Each state is marked ``unchecked -> again -> checked`` as it is left,
        so the run ends at a terminal state or at a state left twice: an
        operation may change the model on one pass and not the next, and the
        second pass's configurations repeat forever after (given the gate).
        Each transition is charged against the step budget before it is
        taken, counted, and held to the instance's 2·|Q| bound; the gate
        decides when a transition reaches P+2|C|."""
        a, gate, taken = self.a, self.gate, 0
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
            pos += 1
            c = self.reach(label, q2, c, pos)
            if gate is not None and pos == gate.twice_at and not gate.decide():
                raise _Refused()
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

    def unfold(self, q: int, c: ComponentModel, pos: int) -> Unfolding:
        """The run from (q, c) at position ``pos`` as one operator instance walks it.  Its repeat
        comes before the marks stop it: under the gate, the transition into
        two laps past the entry leaves a state for the second time, and on a
        window every configuration repeats one lap later."""
        return Unfolding(self.a, q, c, self.run(q, c, pos), erased=self.erased)

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
    for pos, (label, q2, c2) in enumerate(walk.run(q, c, pos), pos + 1):
        if event_holds(c, c2, label, f.event, pos):
            pending.append((q2, c2, pos))
            if not collect_all:
                break
        c = c2
    # every occurrence kept must pass; none at all is vacuous truth
    for q2, c2, pos2 in pending:
        try:
            _eval_formula(f.inner, walk, q2, c2, pos2)
        except _Violation as v:
            v.afters = (pos2, *v.afters)
            raise


def _always_loop(cp: ConfigProperty, walk: _Walk, q: int, c: ComponentModel, pos: int):
    """Check ``cp`` on (q, c) and on every configuration of its marked run."""
    run = (c2 for _label, _q, c2 in walk.run(q, c, pos))
    for pos, c in enumerate(chain([c], run), pos):
        if not walk.eval_cp(cp, c):
            raise _Violation(pos, f"always [{print_cp(cp)}] violated",
                             falsified=range(pos, pos + 1))


def _assert_settled(run: Unfolding):
    """An exhausted instance unfolding has a period or a terminal state (see _Walk.unfold)."""
    if run.period_start is None and not run.complete:
        raise AssertionError("instance unfolding ended with neither a period nor a terminal state")


def _eventually_scan(cp: ConfigProperty, walk: _Walk, q: int, c: ComponentModel, pos: int):
    """Passes as soon as one reachable configuration satisfies ``cp``.

    Unfolds until the (state, model) pair repeats or the path ends; each
    state is applied at most twice on the way.
    """
    run = walk.unfold(q, c, pos)
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
    run = walk.unfold(q, c, pos)
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
                                 length=pos + n, occurrence=pos + i,
                                 falsified=range(pos + evaluated, pos + evaluated + 1))
            evaluated += 1
        if not is_always:
            # reported at the occurrence's representative in the window
            raise _Violation(pos + cur,
                             f"before {e.op_name} {e.modality}: eventually "
                             f"[{print_cp(tr.cp)}] unsatisfied in preceding segment",
                             length=pos + n, occurrence=pos + i, falsified=range(pos, pos + i))
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

def gate_admits(a: PathAutomaton, ops: Mapping[str, EvolutionOperation],
                c0: ComponentModel) -> tuple[bool, bool]:
    """Whether the idempotence gate admits the cycle of ``a``, which must have
    one, on the run from ``c0``: exactly, and with parameter values erased.
    Both are decided on one run to P+2|C|, as :func:`check` reads either off
    its run; an exact repeat is an erased one too."""
    once, twice = _cycle_ends(_Run(a, ops, c0))
    exact = once == twice
    return exact, exact or _same(once, twice, erased=True)


def _unfold(run: _Run, max_steps: int) -> ConcreteLasso:
    """The window of a lasso the gate refused: the first positions of
    ``run`` for at most ``max_steps`` transitions, cut short at the path's
    end or before an exact (state, model) repeat.  Those the run holds are
    rebuilt from its records, one ``derive_model`` each; the run is
    extended past its frontier."""
    steps = run.steps
    reached = run.configurations(range(1, max_steps + 1))
    window = Unfolding(run.a, 0, run.c0, (steps[pos][:2] + (c,) for pos, c in reached))
    entries = tuple(LassoStep(q, c, label) for q, label, c in window)
    return ConcreteLasso(run.a, entries, window.period_start, window.complete)


def _witnessed(f: FtplFormula, holds: bool) -> bool:
    """Whether the walk's verdict on a cut window stands: a prefix proves true only
    a bare ``eventually``, and proves no ``eventually`` false, nor ``after``s over one."""
    while not holds and isinstance(f, After):
        f = f.inner
    return isinstance(f, Eventually) == holds


def _witness_steps(run: _Run, length: int) -> Iterator[WitnessStep]:
    """The first ``length`` positions of ``run``, which holds them, with
    their digests.  One digester takes ``c0`` and then, for each
    configuration not seen before, the changes since the last one it took.

    Repeats are found from the records, with no model built.  ``drift``
    holds each id whose component (or None, where it is absent) is not
    ``c0``'s, and each binding whose presence is not, with its value at the
    current position; an entry goes when its value returns to ``c0``'s.  No
    delegation comes back once gone.  So two positions hold equal
    configurations exactly when their drifts and their delegations gone are
    equal under ``==``, and equal configurations have equal component sums,
    which the run keeps: each distinct configuration is kept, with a copy
    of its drift and its digest, under its sum and its delegations gone.
    """
    c0, steps = run.c0, run.steps
    components, bindings = c0.components, c0.bindings
    digest = model_digester()  # successive configurations share components
    drift: dict[Union[str, Binding], object] = {}
    gone = frozenset()
    d = digest(c0)
    seen = {(steps[0][3], gone): [({}, d)]}  # (drift, digest) of each distinct configuration
    yield WitnessStep(0, "", d)
    last = 0  # the position the digester took last
    for pos in range(1, length):
        label, q, log, total = steps[pos]
        change = composed([log])
        for x, value in chain(change.components.items(), change.bindings.items()):
            if value == (components.get(x) if isinstance(x, str) else x in bindings):
                drift.pop(x, None)
            else:
                drift[x] = value
        if change.uncoupled:
            gone |= change.uncoupled
        alike = seen.setdefault((total, gone), [])
        for kept, d in alike:
            if kept == drift:
                break
        else:
            d = digest(change if last == pos - 1 else
                       composed(log for _label, _q, log, _sum in steps[last + 1:pos + 1]))
            alike.append((dict(drift), d))
            last = pos
        yield WitnessStep(q, label, d)


def run_steps(a: PathAutomaton, ops: Mapping[str, EvolutionOperation], c0: ComponentModel,
              n: int) -> Iterator[tuple[WitnessStep, ComponentModel]]:
    """The first ``n`` positions of the run from ``c0``, as far as the path
    goes, each as a witness step with its configuration.  Each step is
    digested from the changes the run's index logged for it, as a witness
    is digested, but every position is digested, and nothing is kept."""
    digest = model_digester()  # successive configurations share components
    yield WitnessStep(0, "", digest(c0)), c0
    transitions = run_path(a, ops, 0, c0)  # c0 holds the run's index from here on
    index = c0._index
    index.log = log = []
    try:
        for label, q, c in islice(transitions, n - 1):
            yield WitnessStep(q, label, digest(composed([log]))), c
            log.clear()
    finally:
        index.log = None


def _fails(run: _Run, length: int, index: int, v: _Violation,
           proving: Optional[FtplFormula], erased: bool, stats: CheckStats) -> Verdict:
    """The fails verdict on violation ``v``, whose witness is the first
    ``length`` positions of ``run``, reported at ``index``; no operation is
    applied for them (:func:`_witness_steps`).  With ``proving``, the
    formula ``v`` refutes, the verdict is checked here against ``v``'s proof
    on the positions it reads, rebuilt from the run's records, and the run
    is extended for any that lie past its frontier (parameter values erased
    in comparisons when ``erased``); a flaw raises
    :class:`OracleDisagreement`."""
    shown = tuple(_witness_steps(run, length))
    if proving is not None:
        proof, steps = v.proof(), run.steps
        kept = {pos: steps[pos][:2] + (c,)
                for pos, c in run.configurations(sorted(proof.reads(length)))}
        flaw = refutation_flaw(proving, index, v.violated, proof, kept, length, erased)
        if flaw is not None:
            raise OracleDisagreement(f"oracle cross-check disagreement: checker says fails, "
                                     f"but its witness does not prove it: {flaw}")
    return Verdict(FAILS, witness=TraceWitness(shown, index, v.violated), stats=stats)


def _gated_verdict(f: FtplFormula, run: _Run, walk: _Walk, gate: Optional[_Gate],
                   proving: Optional[FtplFormula]) -> Optional[Verdict]:
    """The walk's verdict from the initial state, or None if the gate
    refuses.  With ``proving``, a ``fails`` verdict is proof-checked as
    :func:`_fails` builds it.

    The walk judges before the gate decides, and that is sound: the walk
    never reads the gate's answer, and what rests on the gate (an instance
    unfolding's repeat, ``_assert_settled``, the 2·|Q| bound) is reached
    only once that instance has passed position P+2|C|, where the gate has
    decided and a refusal has stopped the walk.  So the walk's outcome (it
    holds, a violation, a spent budget or an evaluation error) is kept, the
    gate decides once, and the outcome stands only if the gate admits.
    """
    try:
        _eval_formula(f, walk, 0, run.c0, 0)
        outcome = None
    except (_Violation, _Budget, CpEvalError, RecursionError) as e:
        outcome = e
    except _Refused:
        return None
    try:
        if gate is not None and not gate.decide():
            return None
        if outcome is None:
            return Verdict(HOLDS, stats=walk.stats())
        if isinstance(outcome, _Violation):
            return _fails(run, outcome.length, outcome.index, outcome, proving, walk.erased,
                          walk.stats())
        if isinstance(outcome, _Budget):
            return Verdict(UNKNOWN, reason=REASON_BUDGET,
                           residual=residual_from(run.a, outcome.state),
                           reached=outcome.model, stats=walk.stats())
        raise outcome  # evaluating a property
    finally:
        del outcome  # its traceback holds this frame and the walk's: no cycle outlives the call


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
    run = _Run(a, ops, c0)
    gate = _Gate(run, erasure_invariant(f, ops)) if a.has_cycle else None
    walk = _Walk(a, run.reach, opts.max_steps, gate=gate)
    # a finite prefix refutes f: under the cross-check a fails verdict proves itself
    proving = f if opts.oracle_crosscheck and _witnessed(f, False) else None
    verdict = _gated_verdict(f, run, walk, gate, proving)
    if verdict is None and opts.max_steps is None:
        # nothing explored counts: the residual is the whole path
        return Verdict(UNKNOWN, reason=REASON_CYCLE, residual=residual_from(a, 0),
                       reached=c0, stats=CheckStats(0, 0, 0))
    if verdict is None:
        # a non-idempotent cycle, bounded: the window repeats exactly or is cut by the budget
        lasso = _unfold(run, opts.max_steps)
        entries, ps, n = lasso.entries, lasso.period_start, len(lasso.entries)
        labels = tuple(a.labels[s.state] for s in entries[:n if ps is not None else n - 1])
        # state i is window position i, reached in _unfold; an exact repeat needs no gate
        walk = _Walk(PathAutomaton(labels, n, ps), lambda _label, q, _c, _pos: entries[q].model,
                     None)
        try:
            _eval_formula(f, walk, 0, c0, 0)
            v = None
        except _Violation as violation:
            # without its traceback, which holds this frame: v would keep the window
            # in a reference cycle until the cyclic collector runs
            v = violation.with_traceback(None)
        stats, last = CheckStats(n - 1, walk.cp_evals, n - 1), entries[-1]
        if ps is None and not _witnessed(f, v is None):
            verdict = Verdict(UNKNOWN, reason=REASON_BUDGET,
                              residual=residual_from(a, last.state), reached=last.model,
                              stats=stats)
        elif v is None:
            verdict = Verdict(HOLDS, stats=stats)
        else:
            i = v.index if v.index < n else ps + (v.index - ps) % (n - ps)  # into the period
            # the window is the run's first n positions; a proof may read past it
            verdict = _fails(run, n, i, v, proving, False, stats)

    # a proving fails verdict was checked as it was built
    if not opts.oracle_crosscheck or verdict.is_unknown or verdict.is_fails and proving is not None:
        return verdict
    reference = oracle_verdict(f, a, c0, ops)
    if reference is not None and reference != verdict.is_holds:
        raise OracleDisagreement(
            f"oracle cross-check disagreement: checker says {verdict.status}, "
            f"oracle says {'holds' if reference else 'fails'}")
    return verdict
