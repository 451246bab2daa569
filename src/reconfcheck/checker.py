"""Mark-based property checking over lasso automata.

The traversal mirrors a model checker's marking discipline: every operator
instance owns a fresh mark map and walks the automaton in ``_Walk.run``,
taking each transition at most twice (``unchecked -> again -> checked``), so
any check takes at most 2|Q| transitions per instance; ``eventually`` and
``before`` instances stop earlier, at their run's repeat.

A path is deterministic, so every configuration a check needs is a
position of one run from the initial configuration (``_Run``), extended
once per position and recorded as the change each step made.  Each
position is classified from its record alone (``_Classes``): two positions
get the same class id exactly when their configurations are equal, with
parameter values erased when the gate erases them.  The walk reads
classes, never models: an instance's repeat is a repeated (state, class),
an event changed the configuration exactly when the classes around it
differ, and each property's value is kept per class, so a configuration is
built, from the run's records, only for a value the walk does not have
yet.  A nested instance that walks positions the run holds reads their
classes and applies nothing.

The run is ultimately periodic (Markey & Schnoebelen, "Model checking a
path", CONCUR 2003): once a position L from P+|C| on has the class of
L-|C|, every later position has the class of the one a lap before.  The
run looks for that fold up to P+2|C| as it takes each step; past it the
walk reads each class off the lap before, and applies no operation and
evaluates nothing new.  The run is extended for real only where a
configuration itself is reported: a spent budget's ``reached``, a
witness or a proof.

Soundness over the repeated cycle rests on an idempotence gate: the
composed cycle F must satisfy F(F(e)) = F(e) at its entry configuration e
(parameter values erased when the formula never reads parameters).  That
holds exactly when the run folds by P+2|C|, so the run is its own gate
(``_Run.admits``): the walk finds the fold as it takes the run there, and
only a walk that ends before then leaves the run to extend.  A cycle
failing the gate yields an ``unknown`` verdict unless a step budget is
set: the run's first positions within the budget, up to their first exact
(state, class) repeat, are then a window (``_unfold``), walked as a
lasso or as a cut path on the run's exact classes.  One function turns
either walk's outcome into a verdict (``_verdict``).

The step budget is charged for the walk's transitions only, folded ones
included, never for the gate's own applications, a window's or a report's.

A ``fails`` witness is read off the run's records: its digests are
patched from the changes, one per exact class.  With the oracle
cross-check, a ``fails`` verdict that a finite prefix proves (an
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
# eval_cp and erase_param_values, which nothing here calls, stay importable
# because perfbench/tracer.py rebinds them in this module
from .model import Binding, CompiledCp, Component, ComponentModel, ConfigProperty, CpEvalError, \
    Derived, compile_cp, component_sum, composed, erase_component, erase_param_values, eval_cp, \
    hold_index, validate_model  # noqa: F401
# oracle_eval_detailed stays importable because perfbench/tracer.py rebinds it here
from .oracle import Refutation, oracle_eval_detailed, oracle_verdict, \
    refutation_flaw  # noqa: F401
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

_SUM_MASK = (1 << 64) - 1  # component sums are kept modulo 2^64


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
    """The step budget ran out at state ``state``, run position ``pos``."""

    def __init__(self, state: int, pos: int):
        super().__init__("step budget exhausted")
        self.state = state
        self.pos = pos


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


def _shift(c: Optional[Component]) -> int:
    """What erasing ``c``'s parameter values adds to a sum of component hashes."""
    return 0 if c is None or not c.params else hash(erase_component(c)) - hash(c)


class _Classes:
    """Configuration classes of the positions of a run: two positions have
    the same id exactly when their configurations are equal, with parameter
    values erased when ``erased``.  ``ids`` holds the id of each position
    classified so far, and ``first`` the first position of each class.

    A position is classified from its record alone, on first ask and in
    order (:meth:`at`): no model is built or compared.  ``_drift`` holds
    each id whose component (None where absent, erased when ``erased``)
    differs from the base's at the current position, and each binding whose
    presence does.  The base is ``c0`` for the prefix and the cycle's entry
    e from position P on, so a cycle position's drift holds only what the
    cycle changed.  No delegation comes back once gone, so two positions
    hold equal configurations exactly when they have equal drifts from one
    base and equal delegations gone.  Each class keeps a copy of its drift,
    with its base, under a key that does not depend on the base: the
    delegations gone, and the component sum the run keeps
    (:func:`~reconfcheck.model.component_sum`), or erased, the sum of the
    erased components' hashes, which differs from it only by the
    :func:`_shift` of each component with parameters (kept in ``_shifts``
    for the ids the run touched).  A cycle position whose key matches a
    prefix class, and whose drift matches no class of the entry's, is
    compared with the prefix class from ``c0`` on: if they are equal, it
    keeps that class's id, which is kept from then on against the entry.
    """

    def __init__(self, steps: list, c0: ComponentModel, entry_at: Optional[int], erased: bool):
        self.steps, self.c0, self.erased = steps, c0, erased
        self.entry_at = entry_at or None  # a cycle entered at 0 is measured against c0
        self.entry: Optional[ComponentModel] = None  # handed over when the run reaches P
        self.ids, self.first = [0], [0]
        self._base = c0
        self._drift: dict[Union[str, Binding], object] = {}
        self._gone = frozenset()
        self._shifts: dict[str, int] = {}
        self._delta = 0  # erased: the sum of the shifts, less c0's
        self._blanked: dict[str, Optional[Component]] = {}  # erased: the base's components
        self._table = {(self._total(0), self._gone): [(c0, {}, 0)]}

    def at(self, pos: int) -> int:
        """The id of run position ``pos``, which the run holds."""
        ids = self.ids
        while len(ids) <= pos:
            self._classify(len(ids))
        return ids[pos]

    def _total(self, pos: int) -> int:
        total = self.steps[pos][3]
        return (total + self._delta) & _SUM_MASK if self.erased else total

    def _value(self, base: ComponentModel, x: Union[str, Binding]) -> object:
        if isinstance(x, str):
            c = base.components.get(x)
            return erase_component(c) if self.erased and c is not None else c
        return x in base.bindings

    def _erased(self, cid: str, c: Optional[Component]) -> Optional[Component]:
        """``c``, now at ``cid``, erased, with its shift kept."""
        shift = 0
        if c is not None and c.params:
            erased = erase_component(c)
            shift, c = hash(erased) - hash(c), erased
        shifts = self._shifts
        old = shifts[cid] if cid in shifts else _shift(self.c0.components.get(cid))
        if shift != old:
            shifts[cid] = shift
            self._delta += shift - old
        return c

    def _classify(self, pos: int) -> None:
        drift, base, erased = self._drift, self._base, self.erased
        comps, links = base.components, base.bindings
        for put, taken, cut, made, uncoupled in self.steps[pos][2]:
            for c in put:
                cid = c.id
                was = comps.get(cid)
                if erased:
                    c = self._erased(cid, c)
                    if was is not None and was.params:
                        blanked = self._blanked
                        was = blanked.get(cid) or blanked.setdefault(cid, erase_component(was))
                if c is was or c == was:
                    drift.pop(cid, None)
                else:
                    drift[cid] = c
            for cid in taken:
                if erased:
                    self._erased(cid, None)
                if cid in comps:
                    drift[cid] = None
                else:
                    drift.pop(cid, None)
            for b in cut:
                if b in links:
                    drift[b] = False
                else:
                    drift.pop(b, None)
            for b in made:
                if b in links:
                    drift.pop(b, None)
                else:
                    drift[b] = True
            if uncoupled:
                self._gone = self._gone.union(uncoupled)
        bucket = self._table.setdefault((self._total(pos), self._gone), [])
        for found, (kept_base, kept, _cid) in enumerate(bucket):
            if kept_base is base and kept == drift:
                break
        else:
            found = self._find_prefix_class(bucket) if base is not self.c0 else None
        cid = None if found is None else bucket[found][2]
        if pos == self.entry_at:  # from here on against the entry
            self._base, self._drift, self._blanked = self.entry, {}, {}
            if found is not None:
                del bucket[found]
                found = None
        if cid is None:
            cid = len(self.first)
            self.first.append(pos)
        if found is None:
            bucket.append((self._base, dict(self._drift), cid))
        self.ids.append(cid)

    def _find_prefix_class(self, bucket: list) -> Optional[int]:
        """The index in ``bucket`` of the prefix class, kept against ``c0``,
        of the current cycle position, or None; the class is kept against
        the entry from then on."""
        base, from_c0 = self._base, None
        for i, (kept_base, kept, cid) in enumerate(bucket):
            if kept_base is not base:
                if from_c0 is None:
                    from_c0 = self._from_c0()
                if kept == from_c0:
                    bucket[i] = (base, dict(self._drift), cid)
                    return i
        return None

    def _from_c0(self) -> dict:
        """The current cycle position's drift from ``c0``: the prefix's
        changes, composed from its records, under the drift from the entry."""
        prefix = composed(log for _label, _q, log, _sum in self.steps[1:self.entry_at + 1])
        now: dict = dict(prefix.components)
        if self.erased:
            now = {cid: None if c is None else erase_component(c) for cid, c in now.items()}
        now.update(prefix.bindings)
        now.update(self._drift)
        return {x: v for x, v in now.items() if v != self._value(self.c0, x)}


class _Run:
    """The run of a check from the initial configuration, recorded as changes
    and classified.

    A path is deterministic, so every configuration a check reads is a
    position of this one run.  It keeps the initial model ``c0``, the
    newest model, which holds the run's
    :class:`~reconfcheck.model.ModelIndex` from position 0 on, and in
    ``steps``, for each position it reached, the label into it, its state,
    the changes :func:`~reconfcheck.model.derive_model` made on the way
    from the position before (:func:`_step`) and the component sum it kept
    (:func:`~reconfcheck.model.component_sum`): a version list of deltas
    (Driscoll, Sarnak, Sleator & Tarjan, "Making data structures
    persistent", JCSS 1989).  Any other position is rebuilt from the
    records (:meth:`model`, :meth:`configurations`).

    ``keys`` classify each position as a check's walk reads it: with
    parameter values erased when ``erased``, as the gate erases them, and
    else exactly (:class:`_Classes`); ``exact`` classifies it exactly, for
    a witness or a window.  Once a position L from P+|C| on has the key of
    L-|C|, every later position has the key of the position |C| before it.
    That rests on the path being deterministic and, with values erased, on
    the erased result of every operation depending only on its erased
    input: no precondition reads a parameter value (a ``set`` compares the
    value it computes with the one it replaces, and either way the erased
    results agree), and a ``set`` changes at most the value it writes.  The
    run looks for that ``fold`` from P+|C| to P+2|C|: :meth:`key` reads
    every position past it off the lap before, and the run takes no step
    past it unless asked to by :meth:`extend_to`, for a configuration a
    verdict reports.

    The fold is the idempotence gate (:meth:`admits`): F(F(e)) = F(e)
    holds, with values erased when the keys are, exactly when the run
    folds by P+2|C|, as ``reconfig.is_idempotent_sequence`` decides it.  A
    fold at L <= P+2|C| gives P+2|C| the key of P+|C|, so F(F(e)) = F(e);
    and F(F(e)) = F(e) is itself a fold at P+2|C|, if none came before.

    Nothing else in a check derives from the newest model with its index:
    a rebuild carries none (:meth:`~reconfcheck.model.Change.onto`), and
    the oracle's own ``run_path`` starts from ``c0`` only once the check's
    run is done.  So the index moves with each step, and each of its parts
    is built at most once per check.
    """

    def __init__(self, a: PathAutomaton, ops: Mapping[str, EvolutionOperation],
                 c0: ComponentModel, erased: bool = False):
        self.a, self.ops, self.c0 = a, ops, c0
        hold_index(c0)
        self.newest = c0
        self.steps: list[tuple[str, int, list[Derived], int]] = [("", 0, [], component_sum(c0))]
        # the cycle's entry e, kept from when the run reaches position P
        self.entry: Optional[ComponentModel] = c0 if a.back_target == 0 else None
        self.keys = _Classes(self.steps, c0, a.back_target, erased)
        self._exact = None if erased else self.keys
        # the lap length |C|, and the positions P+|C| and P+2|C|, where the run may fold
        self.lap = a.n_states - a.back_target if a.has_cycle else 0
        self.once_at, self.twice_at = a.n_states, a.n_states + self.lap
        self.fold: Optional[int] = None
        self._built = (0, c0)  # the position rebuilt last, and its configuration

    @property
    def exact(self) -> _Classes:
        """The exact classes, made on first use when the keys erase: only a
        witness and a window read them."""
        if self._exact is None:
            self._exact = _Classes(self.steps, self.c0, self.a.back_target, False)
            self._exact.entry = self.entry
        return self._exact

    def key(self, label: str, q: int, pos: int) -> int:
        """The key of position ``pos``, reached over ``label`` into state
        ``q``: read off the run where it holds the position or has folded,
        and else from the step the frontier takes."""
        fold = self.fold
        if fold is not None and pos >= fold:
            pos = fold - self.lap + (pos - fold) % self.lap
        elif pos == len(self.steps):
            self._take(label, q)
        return self.keys.at(pos)

    def _take(self, label: str, q: int) -> None:
        """The step over ``label`` into state ``q`` from the newest model,
        recorded; from P+|C| to P+2|C|, whether the run folds there."""
        new, log = _step(self.ops[label], self.newest)
        pos = len(self.steps)
        self.steps.append((label, q, log, component_sum(new)))
        self.newest = new
        if pos == self.a.back_target:
            self.entry = self.keys.entry = new
            if self._exact is not None:
                self._exact.entry = new
        elif (self.lap and self.fold is None and self.once_at <= pos <= self.twice_at
              and self.keys.at(pos) == self.keys.at(pos - self.lap)):
            self.fold = pos

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

    def model(self, pos: int) -> ComponentModel:
        """The configuration at position ``pos``, which the run holds: the
        newest model, or the one rebuilt last, or one rebuilt from it (from
        ``c0`` if it lies past ``pos``) with one ``derive_model``, which
        carries no index."""
        steps = self.steps
        if pos == len(steps) - 1:
            return self.newest
        at, c = self._built
        if pos < at:
            at, c = 0, self.c0
        if pos != at:
            c = composed(log for _label, _q, log, _sum in steps[at + 1:pos + 1]).onto(c)
            self._built = (pos, c)
        return c

    def configurations(self, positions: Iterable[int]) -> Iterator[tuple[int, ComponentModel]]:
        """(position, configuration) for each of ``positions``, increasing,
        that the path reaches (:meth:`model`), extending the run first for a
        position past its frontier."""
        for pos in positions:
            if not self.extend_to(pos):
                return
            yield pos, self.model(pos)

    def admits(self) -> bool:
        """Whether the idempotence gate admits the cycle, which the path
        must have.  A walk that ended before P+2|C| leaves the run to extend
        here, until it folds or reaches P+2|C|; asked again, it takes no
        step."""
        steps = self.steps
        while self.fold is None and len(steps) <= self.twice_at:
            self.extend_to(len(steps))
        return self.fold is not None


class _Mark(enum.Enum):
    UNCHECKED = "unchecked"
    AGAIN = "again"
    CHECKED = "checked"


def _fresh_marks(a: PathAutomaton) -> list[_Mark]:
    """All states unchecked: one operator instance's marks before it walks."""
    return [_Mark.UNCHECKED] * a.n_states


class _Walk:
    """Shared walk context: takes transitions, charges budgets and counters.

    A walk reads configuration classes, never models: ``reach(label, q,
    pos)`` is the class of the configuration a transition reaches, and
    ``model_of(k)`` a configuration of class ``k``.  Two positions of one
    class are alike to every property and event the walk reads, so an
    instance's repeat, an event's change and a property's value are read
    off the classes.  Each property is compiled on first use, and its value
    is kept per class: a configuration is built only for a value the walk
    does not have yet.  ``gate``, the run of a lasso, decides its cycle
    where a transition reaches P+2|C| (:meth:`_Run.admits`).
    """

    def __init__(self, a: PathAutomaton, reach: Callable[[str, int, int], int],
                 model_of: Callable[[int], ComponentModel],
                 max_steps: Optional[int], gate: Optional[_Run] = None):
        self.a = a
        self.reach = reach
        self.model_of = model_of
        self.remaining = max_steps
        self.gate = gate
        self.transitions = 0
        self.cp_evals = 0
        self.max_instance = 0
        self.values: dict[ConfigProperty, tuple[CompiledCp, dict[int, bool]]] = {}

    def run(self, q: int, pos: int) -> Iterator[tuple[str, int, int]]:
        """The transitions one operator instance takes from state ``q`` at
        run position ``pos``, as (label, target, class), the class
        ``reach(label, target, pos + 1)`` of the position after.

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
                    raise _Budget(q, pos)
                self.remaining -= 1
            label, q2 = nxt
            pos += 1
            k = self.reach(label, q2, pos)
            if gate is not None and pos == gate.twice_at and not gate.admits():
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
            yield label, q, k

    def unfold(self, q: int, k: int, pos: int) -> Unfolding:
        """The run from state ``q`` and class ``k`` at position ``pos`` as one
        operator instance walks it, keyed by (state, class).  Its repeat
        comes before the marks stop it: under the gate, the transition into
        two laps past the entry leaves a state for the second time, and on a
        window every configuration repeats one lap later."""
        return Unfolding(self.a, q, k, self.run(q, pos))

    def holds(self, cp: ConfigProperty, k: int) -> bool:
        """The value of ``cp`` on class ``k``: counted as a read, and
        evaluated only the first time."""
        self.cp_evals += 1
        kept = self.values.get(cp)
        if kept is None:
            kept = self.values[cp] = (compile_cp(cp), {})
        test, known = kept
        value = known.get(k)
        if value is None:
            value = known[k] = test(self.model_of(k), {})
        return value

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


def _after_loop(f: After, walk: _Walk, q: int, k: int, pos: int):
    """Check ``f.inner`` after occurrences of ``f.event`` from state ``q``
    and class ``k`` at run position ``pos``.

    When ``f.inner`` is suffix-monotone the first occurrence decides (the
    classic first-occurrence rule); otherwise every occurrence met during
    the marked run is checked.  An occurrence changed the configuration
    exactly when the classes around it differ.
    """
    collect_all = not is_suffix_monotone(f.inner)
    pending: list[tuple[int, int, int]] = []
    for pos, (label, q2, k2) in enumerate(walk.run(q, pos), pos + 1):
        if event_holds(k, k2, label, f.event, pos):
            pending.append((q2, k2, pos))
            if not collect_all:
                break
        k = k2
    # every occurrence kept must pass; none at all is vacuous truth
    for q2, k2, pos2 in pending:
        try:
            _eval_formula(f.inner, walk, q2, k2, pos2)
        except _Violation as v:
            v.afters = (pos2, *v.afters)
            raise


def _always_loop(cp: ConfigProperty, walk: _Walk, q: int, k: int, pos: int):
    """Check ``cp`` on (q, k) and on every configuration of its marked run."""
    run = (k2 for _label, _q, k2 in walk.run(q, pos))
    for pos, k in enumerate(chain([k], run), pos):
        if not walk.holds(cp, k):
            raise _Violation(pos, f"always [{print_cp(cp)}] violated",
                             falsified=range(pos, pos + 1))


def _assert_settled(run: Unfolding):
    """An exhausted instance unfolding has a period or a terminal state (see _Walk.unfold)."""
    if run.period_start is None and not run.complete:
        raise AssertionError("instance unfolding ended with neither a period nor a terminal state")


def _eventually_scan(cp: ConfigProperty, walk: _Walk, q: int, k: int, pos: int):
    """Passes as soon as one reachable configuration satisfies ``cp``.

    Unfolds until the (state, class) pair repeats or the path ends; each
    state is left at most twice on the way.
    """
    run = walk.unfold(q, k, pos)
    for i, (_q, _label, k) in enumerate(run):
        if walk.holds(cp, k):
            return
    _assert_settled(run)
    how = "on the finite path" if run.complete else "(cycle stabilized)"
    raise _Violation(pos + i, f"eventually [{print_cp(cp)}] never satisfied {how}")


def _before_check(e: EventSpec, tr: TraceProperty, walk: _Walk, q: int, k: int, pos: int):
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
    Each window configuration is read at most once.  An event's change is
    read off the classes of the window, so when the walk's classes erase
    parameter values, a wrapped representative, which may differ from the
    true configuration in its parameters, is still alike to it.
    """
    run = walk.unfold(q, k, pos)
    states, _labels, classes = zip(*run)
    _assert_settled(run)
    ps, n = run.period_start, len(classes)
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
        if not event_holds(classes[prev], classes[cur], label, e, i):
            continue
        # the occurrence's segment is [0, i-1]; indices from n on repeat earlier ones
        while evaluated < min(i, n):
            holds = walk.holds(tr.cp, classes[evaluated])
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


def _eval_formula(f: FtplFormula, walk: _Walk, q: int, k: int, pos: int):
    """Check ``f`` from state ``q`` and class ``k`` at run position ``pos``
    with a fresh mark map per operator node; a violation raises
    :class:`_Violation`."""
    if isinstance(f, After):
        _after_loop(f, walk, q, k, pos)
    elif isinstance(f, Before):
        _before_check(f.event, f.trace, walk, q, k, pos)
    elif isinstance(f, Always):
        _always_loop(f.cp, walk, q, k, pos)
    elif isinstance(f, Eventually):
        _eventually_scan(f.cp, walk, q, k, pos)
    else:
        raise TypeError(f"not a formula node: {f!r}")


# --- the checker entry point -------------------------------------------------------

def gate_admits(a: PathAutomaton, ops: Mapping[str, EvolutionOperation],
                c0: ComponentModel) -> tuple[bool, bool]:
    """Whether the idempotence gate admits the cycle of ``a``, which must have
    one, on the run from ``c0``: exactly, and with parameter values erased.
    Both are decided on one run to P+2|C|, whose positions are classified
    both ways, by comparing the classes of F(e) and F(F(e)); an exact repeat
    is an erased one too."""
    run = _Run(a, ops, c0, erased=True)
    run.extend_to(run.twice_at)
    exact = run.exact.at(run.once_at) == run.exact.at(run.twice_at)
    return exact, exact or run.keys.at(run.once_at) == run.keys.at(run.twice_at)


@record
class _Window:
    """The window of a gate-refused lasso: the exact class of each of the
    run's first positions, entry i at position i; the window as a path
    automaton whose state i is position i, with its back edge at the
    first exact (state, class) repeat, if the window reaches one; and the
    configuration of each position the window took past the run's
    frontier."""

    entries: tuple[int, ...]
    automaton: PathAutomaton
    taken: dict[int, ComponentModel]

    def model(self, run: _Run, k: int) -> ComponentModel:
        """A configuration of exact class ``k``: one the window took, or
        else one rebuilt from the run's records."""
        pos = run.exact.first[k]
        c = self.taken.get(pos)
        return run.model(pos) if c is None else c


def _unfold(run: _Run, max_steps: int) -> _Window:
    """The window of a lasso the gate refused: the first positions of
    ``run`` for at most ``max_steps`` transitions, cut short at the path's
    end or before an exact (state, class) repeat.  The run is extended past
    its frontier, and the window keeps the configurations it took there,
    which its walk reads after the run has moved on."""
    steps, exact, taken = run.steps, run.exact, {}
    entries, back = [exact.at(0)], None
    entered = {(0, entries[0]): 0}  # the position of each (state, class)
    for pos in range(1, max_steps + 1):
        if pos == len(steps):
            if not run.extend_to(pos):
                break
            taken[pos] = run.newest
        k = exact.at(pos)
        first = entered.setdefault((steps[pos][1], k), pos)
        if first < pos:
            back = first
            break
        entries.append(k)
    n = len(entries)
    labels = tuple(label for label, _q, _log, _sum in steps[1:n + (back is not None)])
    return _Window(tuple(entries), PathAutomaton(labels, n, back), taken)


def _witnessed(f: FtplFormula, holds: bool) -> bool:
    """Whether the walk's verdict on a cut window stands: a prefix proves true only
    a bare ``eventually``, and proves no ``eventually`` false, nor ``after``s over one."""
    while not holds and isinstance(f, After):
        f = f.inner
    return isinstance(f, Eventually) == holds


def _witness_steps(run: _Run, length: int) -> Iterator[WitnessStep]:
    """The first ``length`` positions of ``run``, extended to hold them,
    with their digests.  One digester takes ``c0`` and then, for each
    exact class not seen before, the changes since the last position it
    took; a repeat reuses its class's digest, and no model is built."""
    run.extend_to(length - 1)
    steps, exact = run.steps, run.exact
    digest = model_digester()  # successive configurations share components
    shown = {exact.at(0): digest(run.c0)}  # the digest of each class
    yield WitnessStep(0, "", shown[exact.at(0)])
    last = 0  # the position the digester took last
    for pos in range(1, length):
        label, q, log, _sum = steps[pos]
        k = exact.at(pos)
        d = shown.get(k)
        if d is None:
            d = shown[k] = digest(composed([log]) if last == pos - 1 else
                                  composed(log for _l, _q, log, _s in steps[last + 1:pos + 1]))
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
    ``length`` positions of ``run``, reported at ``index``; the run is
    extended for any of them it did not take, and read off its records
    (:func:`_witness_steps`).  With ``proving``, the formula ``v`` refutes,
    the verdict is checked here against ``v``'s proof on the positions it
    reads, rebuilt from the run's records, and the run is extended for any
    that lie past its frontier (parameter values erased in comparisons when
    ``erased``); a flaw raises :class:`OracleDisagreement`."""
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


def _verdict(f: FtplFormula, run: _Run, walk: _Walk, proving: Optional[FtplFormula],
             window: Optional[_Window] = None) -> Optional[Verdict]:
    """The verdict of ``walk``, on ``f`` from the initial state, on the run
    or on its ``window``, or None if the gate refuses the run's cycle.
    With ``proving``, a ``fails`` verdict is proof-checked as
    :func:`_fails` builds it.

    The walk judges before the gate decides, and that is sound: the walk
    never reads the gate's answer, and what rests on the gate (an instance
    unfolding's repeat, ``_assert_settled``, the 2·|Q| bound) is reached
    only once that instance has passed position P+2|C|, where the gate has
    decided and a refusal has stopped the walk.  So the walk's outcome (it
    holds, a violation, a spent budget or an evaluation error) is kept, the
    gate decides once, and the outcome stands only if the gate admits.  A
    spent budget reports the configuration where the walk stopped, the run
    extended to it.  A cut window is a spent budget at its last position,
    unless the walk's verdict stands on a prefix (:func:`_witnessed`), and
    a window's violation is reported at its position in the period, with
    the whole window as witness.
    """
    try:
        k = run.keys.at(0) if window is None else window.entries[0]
        _eval_formula(f, walk, 0, k, 0)
        outcome = None
    except (_Violation, _Budget, CpEvalError, RecursionError) as e:
        outcome = e
    except _Refused:
        return None
    try:
        if walk.gate is not None and not walk.gate.admits():
            return None
        if isinstance(outcome, (CpEvalError, RecursionError)):
            raise outcome  # evaluating a property
        stats, erased = walk.stats(), run.keys.erased
        if window is not None:
            # the window is the run's first n positions; a proof may read past it
            n, ps = len(window.entries), window.automaton.back_target
            stats, erased = CheckStats(n - 1, walk.cp_evals, n - 1), False
            if ps is None and not _witnessed(f, outcome is None):
                outcome = _Budget(run.steps[n - 1][1], n - 1)  # at the cut
            elif outcome is not None:
                outcome.length = n
                if outcome.index >= n:
                    outcome.index = ps + (outcome.index - ps) % (n - ps)
        if outcome is None:
            return Verdict(HOLDS, stats=stats)
        if isinstance(outcome, _Violation):
            return _fails(run, outcome.length, outcome.index, outcome, proving, erased, stats)
        run.extend_to(outcome.pos)
        return Verdict(UNKNOWN, reason=REASON_BUDGET, residual=residual_from(run.a, outcome.state),
                       reached=run.model(outcome.pos), stats=stats)
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
    run = _Run(a, ops, c0, a.has_cycle and erasure_invariant(f, ops))
    walk = _Walk(a, run.key, lambda k: run.model(run.keys.first[k]), opts.max_steps,
                 gate=run if a.has_cycle else None)
    # a finite prefix refutes f: under the cross-check a fails verdict proves itself
    proving = f if opts.oracle_crosscheck and _witnessed(f, False) else None
    verdict = _verdict(f, run, walk, proving)
    if verdict is None and opts.max_steps is None:
        # nothing explored counts: the residual is the whole path
        return Verdict(UNKNOWN, reason=REASON_CYCLE, residual=residual_from(a, 0),
                       reached=c0, stats=CheckStats(0, 0, 0))
    if verdict is None:
        # a non-idempotent cycle, bounded: the window repeats exactly or is cut by the budget
        window = _unfold(run, opts.max_steps)
        entries = window.entries
        # state i is window position i; an exact repeat needs no gate
        walk = _Walk(window.automaton, lambda _label, q, _pos: entries[q],
                     lambda k: window.model(run, k), None)
        verdict = _verdict(f, run, walk, proving, window)

    # a proving fails verdict was checked as it was built
    if not opts.oracle_crosscheck or verdict.is_unknown or verdict.is_fails and proving is not None:
        return verdict
    reference = oracle_verdict(f, a, c0, ops)
    if reference is not None and reference != verdict.is_holds:
        raise OracleDisagreement(
            f"oracle cross-check disagreement: checker says {verdict.status}, "
            f"oracle says {'holds' if reference else 'fails'}")
    return verdict
