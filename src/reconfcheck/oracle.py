"""Brute-force ground truth: unfold the lasso, evaluate the semantics literally.

The automaton is unrolled into the concrete configuration sequence until a
(state, model) pair recurs — the sequence is then ultimately periodic and
every quantifier ranges over finitely many behaviour classes — or until
the path ends or 64 laps of the cycle are unrolled; the exact pass of a
formula that cannot observe parameter values stops after two laps, the
window the exact idempotence gate compares.  Evaluation follows the
defining clauses of the temporal operators directly, with a third
"undetermined" outcome when a truncated unfolding cannot settle the
answer.  The verdict looks at the unrolled window after 2, 4, 8, 16 and 32
laps too, and stops at the first that settles it: a truncated window
settles only through a violation or a witness it contains, and every longer
window contains them too.  Each configuration property is evaluated, and
each event tested, at most once per position of an unfolding; every window
of it reads the same values.  Deliberately naive; being obviously correct
is its entire job.

One shortcut keeps it affordable on large models.  A quantifier outside
every other quantifier whose body reads the model only through its
variable (connectives, ``true``, ``false``, ``present(x)``, and
``class(x)`` over components) cannot raise over the model's own records,
and its body's value is one of the record alone.  So :func:`_evaluate`
keeps that value per record, by the record's identity, for one
:func:`oracle_verdict` call: the first is the literal clause's,
``eval_cp(body, m, {x: …})``, and every configuration that shares the
record, as :func:`~reconfcheck.model.derive_model` shares whatever an
operation leaves alone, reads it back, in any order of the records.  The
value is taken per record, never per class, so the checker's argument
that a body depends on a component's class alone is not assumed here.
Every other node, nested and multi-variable quantifiers and bodies that
may raise included, is evaluated by ``eval_cp``'s tree walk, in sorted
order, with its errors.

A ``fails`` that a finite prefix shows (an ``always`` or a ``before``,
under any ``after``s) is not recomputed: :func:`refutation_flaw` checks
the checker's witness against the run positions of its proof, the event
occurrences and the falsifying configurations, with ``event_holds`` and
``eval_cp`` on the true configurations, and checks the reported index and
text.  It reads the positions from the witness's replay, extended past the
witness only for a position the proof names there.  Every other verdict is
recomputed by :func:`oracle_verdict`.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_
from typing import Iterator, Mapping, Optional

from .ftpl import After, Always, Before, Eventually, EventSpec, FtplFormula, \
    TraceProperty, erasure_invariant, event_holds, print_cp
from .model import QUANTIFIER_DOMAINS, And, ComponentModel, ConfigProperty, Exists, FalseAtom, \
    ForAll, Implies, Not, Or, TrueAtom, VarClassIs, VarPresent, erase_param_values, eval_cp
from .pathspec import PathAutomaton
# apply_evolution stays importable because perfbench/tracer.py rebinds it here
from .reconfig import EvolutionOperation, Unfolding, apply_evolution, run_path  # noqa: F401
from .record import record


@record
class LassoStep:
    state: int
    model: ComponentModel
    incoming_label: Optional[str]  # None on the first entry


# configuration property values by the property node's id (the node is kept
# with them) and wrapped run position, and event values by the event node's
# id and the wrapped source position of the transition
_Values = dict[int, tuple[ConfigProperty | EventSpec, dict[int, bool]]]


@record
class ConcreteLasso:
    """The unfolded sequence plus, when found, where it starts repeating.

    ``period_start = j`` means the (state, model) pair that would follow
    the last recorded entry equals the pair at index ``j``; the suffix from
    ``j`` repeats forever.  ``complete`` marks a finite path unfolded to
    its terminal state.  ``erased_compare`` records that the repetition was
    detected on parameter-erased models: the suffix then repeats only up to
    parameter values, which suffices for erasure-invariant formulas.
    """

    automaton: PathAutomaton
    entries: tuple[LassoStep, ...]
    period_start: Optional[int]
    complete: bool
    erased_compare: bool = False

    @property
    def period(self) -> Optional[int]:
        if self.period_start is None:
            return None
        return len(self.entries) - self.period_start


# the laps after which a still unfinished unfolding is evaluated, and its length
_LOOKS = (2, 4, 8, 16, 32)
_MAX_ROUNDS = 64
# the exact idempotence gate's window: entry, F(entry), F(F(entry))
_GATE_LAPS = 2


def _windows(a: PathAutomaton, c0: ComponentModel, ops: Mapping[str, EvolutionOperation],
             max_rounds: int, compare_erased: bool,
             looks: tuple[int, ...] = ()) -> Iterator[ConcreteLasso]:
    """The unfolding from the initial state as windows of one lazy run: the
    first ``r`` laps for each ``r`` in ``looks`` the run lasts, then the
    whole of it, as :func:`unfold_to_lasso` returns it."""
    unfolding = Unfolding(a, 0, c0, run_path(a, ops, 0, c0), erased=compare_erased)
    entries: list[LassoStep] = []
    rounds = 0
    for q, label, c in unfolding:
        lap = bool(entries) and entries[-1].state == a.q_max  # in over the back edge
        if lap:
            rounds += 1
        entries.append(LassoStep(q, c, label))
        if rounds >= max_rounds:
            break
        if lap and rounds in looks:
            yield ConcreteLasso(a, tuple(entries), None, False, compare_erased)
    yield ConcreteLasso(a, tuple(entries), unfolding.period_start, unfolding.complete,
                        compare_erased)


def unfold_to_lasso(a: PathAutomaton, c0: ComponentModel,
                    ops: Mapping[str, EvolutionOperation],
                    max_rounds: int = _MAX_ROUNDS, compare_erased: bool = False) -> ConcreteLasso:
    """Apply transitions from the initial state, recording every configuration.

    Stops at a terminal state, when a (state, model) pair repeats, or after
    ``max_rounds`` traversals of the back edge.  ``compare_erased`` detects
    the repetition on parameter-erased models, which stabilizes cycles
    whose only drift is in parameter values.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    return next(_windows(a, c0, ops, max_rounds, compare_erased))


# --- quantifier bodies kept per record ---------------------------------------------

class _Memo:
    """Quantifier bodies' values per bound record, for any unfoldings."""

    def __init__(self) -> None:
        # for each quantifier node by its id: the node, and its body's value
        # by the id of each record its variable was bound to, or None when
        # the body may read the model other than through its variable
        self.bodies: dict[int, tuple[ConfigProperty, Optional[dict[int, bool]]]] = {}
        # every record a value is kept for, so that no id is reused
        self.records: list[object] = []


def _through_var(body: ConfigProperty, var: str, domain: str) -> bool:
    """Does ``body`` read the model only through ``var``, bound over ``domain``?

    Its nodes must be connectives, ``true``, ``false``, ``present(var)``,
    and ``class(var)`` over components (over bindings it raises).  None of
    them raises on a record of the model's own ``domain``, and the body's
    value is one of that record alone: ``present`` is true, ``class`` reads
    the component's class."""
    kind = type(body)
    if kind is Not:
        return _through_var(body.inner, var, domain)
    if kind is And or kind is Or or kind is Implies:
        return _through_var(body.left, var, domain) and _through_var(body.right, var, domain)
    if kind is VarPresent:
        return body.var == var
    if kind is VarClassIs:
        return body.var == var and domain == "components"
    return kind is TrueAtom or kind is FalseAtom


def _evaluate(cp: ConfigProperty, m: ComponentModel, memo: _Memo) -> bool:
    """``eval_cp(cp, m)``.  The connectives above every quantifier are
    evaluated as their clauses say, and a quantifier among them whose body
    reads the model only through its variable (:func:`_through_var`) by
    :func:`_sweep`.  Every other node is evaluated by ``eval_cp``, in its
    order and with its errors."""
    kind = type(cp)
    if kind is Not:
        return not _evaluate(cp.inner, m, memo)
    if kind is And:
        return _evaluate(cp.left, m, memo) and _evaluate(cp.right, m, memo)
    if kind is Or:
        return _evaluate(cp.left, m, memo) or _evaluate(cp.right, m, memo)
    if kind is Implies:
        return (not _evaluate(cp.left, m, memo)) or _evaluate(cp.right, m, memo)
    if kind is ForAll or kind is Exists:
        kept = memo.bodies.get(id(cp))
        if kept is None:
            through = cp.domain in QUANTIFIER_DOMAINS and \
                _through_var(cp.body, cp.var, cp.domain)
            kept = memo.bodies[id(cp)] = (cp, {} if through else None)
        if kept[1] is not None:
            return _sweep(cp, m, kept[1], memo.records)
    return eval_cp(cp, m)


def _sweep(q: ForAll | Exists, m: ComponentModel, known: dict[int, bool],
           records: list[object]) -> bool:
    """The quantifier ``q`` on ``m``, its body's value read per record from
    ``known``, or on a record's first visit evaluated by ``eval_cp`` and
    kept there, the record in ``records``.  The body cannot raise over the
    model's own records, so its values in any order give the literal
    clause's value: the records are looked up in the model's own order,
    unsorted, all of them."""
    if q.domain == "components":
        tag, members = "component", m.components
        values = list(map(known.get, map(id, members.values())))
        pairs = members.items()
    else:
        tag, members = "binding", m.bindings
        values = list(map(known.get, map(id, members)))
        pairs = zip(members, members)
    if None in values:
        var, body = q.var, q.body
        for i, (key, record) in compress(enumerate(pairs), map(is_, values, repeat(None))):
            values[i] = known[id(record)] = eval_cp(body, m, {var: (tag, key)})
            records.append(record)
    return all(values) if type(q) is ForAll else any(values)


# --- literal evaluation ------------------------------------------------------------

# (truth value or None when undetermined, (index, description) of the first
# found violation or None)
_EvalResult = tuple[Optional[bool], Optional[tuple[int, str]]]


class _Sigma:
    """Indexed access to the ultimately periodic sequence.

    ``values`` keeps the property and event values evaluated on its entries
    (see :meth:`find` and :meth:`event`); windows of one unfolding may share
    it, since entry j is the same model in each of them.  ``memo`` keeps
    quantifier bodies' values per record (see :func:`_evaluate`); any
    unfoldings may share it."""

    def __init__(self, l: ConcreteLasso, values: Optional[_Values] = None,
                 memo: Optional[_Memo] = None):
        self.l = l
        self.n = len(l.entries)
        self.ps = l.period_start
        self.t = None if self.ps is None else self.n - self.ps
        self.erased = l.erased_compare
        self.values = {} if values is None else values
        self.memo = _Memo() if memo is None else memo

    def wrap(self, i: int) -> int:
        if i < self.n:
            return i
        assert self.ps is not None
        return self.ps + (i - self.ps) % self.t

    def cfg(self, i: int) -> ComponentModel:
        return self.l.entries[self.wrap(i)].model

    def _known(self, node: ConfigProperty | EventSpec) -> dict[int, bool]:
        """The values of ``node`` kept for this unfolding; the node is kept
        with them so its id cannot be reused."""
        kept = self.values.get(id(node))
        if kept is None:
            kept = self.values[id(node)] = (node, {})
        return kept[1]

    def find(self, cp: ConfigProperty, positions: range, value: bool) -> Optional[int]:
        """The first of ``positions`` at which ``cp`` evaluates to ``value``.

        ``cp`` is evaluated at most once per wrapped position of the
        unfolding, and an evaluation that raises stores nothing."""
        known, entries, memo = self._known(cp), self.l.entries, self.memo
        for i in positions:
            j = i if i < self.n else self.wrap(i)
            v = known.get(j)
            if v is None:
                v = known[j] = _evaluate(cp, entries[j].model, memo)
            if v == value:
                return i
        return None

    def state(self, i: int) -> int:
        return self.l.entries[self.wrap(i)].state

    def label(self, i: int) -> str:
        # label of the transition into position i = the one leaving state(i-1)
        return self.l.automaton.labels[self.state(i - 1)]

    def event(self, i: int, e: EventSpec) -> bool:
        """Does the transition into position ``i`` satisfy ``e``?  Tested at
        most once per wrapped source position of the unfolding: the source
        fixes the transition in every window."""
        if i <= 0:
            return False
        src = self.wrap(i - 1)
        known = self._known(e)
        v = known.get(src)
        if v is None:
            v = known[src] = self._event(i, e)
        return v

    def _event(self, i: int, e: EventSpec) -> bool:
        label = self.label(i)
        if label != e.op_name:
            return False  # as event_holds would say, without erasing first
        prev, nxt = self.cfg(i - 1), self.cfg(i)
        if self.erased:
            # the suffix repeats only up to parameter values, so a wrapped
            # representative may differ from the true configuration in its
            # parameters; erase both sides so the changed/unchanged verdict
            # is the true one for parameter-free operations
            prev, nxt = erase_param_values(prev), erase_param_values(nxt)
        return event_holds(prev, nxt, label, e, i)

    @property
    def determinate(self) -> bool:
        return self.l.complete or self.ps is not None


def _cp_range(sig: _Sigma, s: int) -> range:
    # configurations appearing in the suffix starting at s: everything from
    # s to the window end, plus the period block (which recurs forever)
    lo = s if sig.ps is None else min(s, sig.ps)
    return range(lo, sig.n)


def _segment_trace(tr: TraceProperty, sig: _Sigma, s: int, end: int) -> tuple[bool, Optional[int]]:
    """Evaluate a trace property on the finite segment [s, end]."""
    if isinstance(tr, Always):
        bad = sig.find(tr.cp, range(s, end + 1), False)
        return bad is None, bad
    return sig.find(tr.cp, range(s, end + 1), True) is not None, None


def _occurrence_indices(sig: _Sigma, s: int, e: EventSpec) -> list[int]:
    # one representative per behaviour class: the transient region plus one
    # full period, including the wrap-around transition at index n
    hi = sig.n if sig.ps is not None else sig.n - 1
    occ = [i for i in range(s + 1, hi + 1) if sig.event(i, e)]
    if sig.ps is not None and s > sig.ps:
        # classes whose representatives precede s recur after the wrap
        occ.extend(i for i in range(sig.ps + 1, s + 1) if sig.event(i, e))
    return occ


def _violated(f: Always | Before) -> str:
    """What a violation of ``f`` says, for a node a finite prefix can falsify."""
    if isinstance(f, Always):
        return f"always [{print_cp(f.cp)}] violated"
    if isinstance(f.trace, Always):
        return (f"before {f.event.op_name} {f.event.modality}: "
                f"always [{print_cp(f.trace.cp)}] violated in preceding segment")
    return (f"before {f.event.op_name} {f.event.modality}: "
            f"eventually [{print_cp(f.trace.cp)}] unsatisfied in preceding segment")


def _ev(f: FtplFormula, sig: _Sigma, s: int) -> _EvalResult:
    if sig.ps is not None and s >= sig.n:
        s = sig.ps + (s - sig.ps) % sig.t

    if isinstance(f, Always):
        i = sig.find(f.cp, _cp_range(sig, s), False)
        if i is not None:
            return False, (i, _violated(f))
        return (True, None) if sig.determinate else (None, None)

    if isinstance(f, Eventually):
        if sig.find(f.cp, _cp_range(sig, s), True) is not None:
            return True, None
        if sig.determinate:
            return False, (sig.n - 1, f"eventually [{print_cp(f.cp)}] never satisfied")
        return None, None

    if isinstance(f, After):
        undetermined = not sig.determinate
        for i in _occurrence_indices(sig, s, f.event):
            value, info = _ev(f.inner, sig, i)
            if value is False:
                return False, info
            if value is None:
                undetermined = True
        return (None, None) if undetermined else (True, None)

    if isinstance(f, Before):
        if sig.ps is not None:
            # beyond n + 2*period every occurrence's segment already contains
            # a full period, so its valuation equals an examined one
            hi = sig.n + 2 * sig.t
        else:
            hi = sig.n - 1
        undetermined = not sig.determinate
        for i in range(s + 1, hi + 1):
            if not sig.event(i, f.event):
                continue
            ok, bad = _segment_trace(f.trace, sig, s, i - 1)
            if not ok:
                return False, (bad if isinstance(f.trace, Always) else sig.wrap(i), _violated(f))
        return (None, None) if undetermined else (True, None)

    raise TypeError(f"not a formula node: {f!r}")


def oracle_eval(f: FtplFormula, l: ConcreteLasso, values: Optional[_Values] = None,
                memo: Optional[_Memo] = None) -> Optional[bool]:
    """Literal truth of the formula on the unfolded path.

    Total whenever the lasso has a period or is a complete finite path.
    On a truncated unfolding the result is None unless the explored window
    already determines it (a found violation, a found witness).  ``values``
    may hold the values kept while evaluating another window of the same
    unfolding, and ``memo`` the quantifier bodies' values kept on any
    unfolding.
    """
    return _ev(f, _Sigma(l, values, memo), 0)[0]


def oracle_eval_detailed(f: FtplFormula, l: ConcreteLasso) -> _EvalResult:
    """Like :func:`oracle_eval` but with the first violation's location."""
    sig = _Sigma(l)
    value, info = _ev(f, sig, 0)
    if info is not None:
        info = (sig.wrap(info[0]), info[1])
    return value, info


def _pass_verdict(f: FtplFormula, a: PathAutomaton, c0: ComponentModel,
                  ops: Mapping[str, EvolutionOperation], max_rounds: int,
                  compare_erased: bool, memo: _Memo) -> Optional[bool]:
    """The first determined value on the windows of one unfolding."""
    values: _Values = {}
    for lasso in _windows(a, c0, ops, max_rounds, compare_erased, _LOOKS):
        value = oracle_eval(f, lasso, values, memo)
        if value is not None:
            return value
    return None


def oracle_verdict(f: FtplFormula, a: PathAutomaton, c0: ComponentModel,
                   ops: Mapping[str, EvolutionOperation]) -> Optional[bool]:
    """Unfold and evaluate, falling back to parameter-erased repetition
    detection when the formula cannot observe parameter values.

    Each pass evaluates its unfolding after 2, 4, 8, 16 and 32 laps while
    it lasts, and at its end.  A window decides only through a violation or
    an ``eventually`` witness it contains, which every longer window
    contains too, so the first determined value is the whole unfolding's.

    The exact pass of an erasure-invariant formula stops after two laps:
    every cycle the exact idempotence gate admits repeats within them, so
    that pass still decides those on its own.  A violation, witness or
    repeat that the exact run would first show in laps 3 to 64 is left to
    the erased pass, which walks the same configurations.  A formula that
    reads parameters keeps the 64-lap exact pass.

    Both passes share one memo of quantifier bodies' values per record
    (:func:`_evaluate`): they start from the same model, so the records
    neither pass changes are one set of objects.

    Total on every lasso whose cycle is idempotent in the sense matching
    the formula (structural idempotence in general, idempotence up to
    parameter erasure for erasure-invariant formulas).
    """
    invariant = erasure_invariant(f, ops)
    laps = _GATE_LAPS if invariant else _MAX_ROUNDS
    memo = _Memo()
    value = _pass_verdict(f, a, c0, ops, laps, compare_erased=False, memo=memo)
    if value is None and invariant:
        value = _pass_verdict(f, a, c0, ops, _MAX_ROUNDS, compare_erased=True, memo=memo)
    return value


# --- checking a finite refutation --------------------------------------------------

# a run position as run_path gives it: (incoming label, state, configuration),
# the label empty at position 0
_Step = tuple[str, int, ComponentModel]


@record
class Refutation:
    """A finite prefix of the run that falsifies a formula whose innermost
    node, under its ``after``s, is an ``always`` or a ``before``.  Every
    position is one of the run from the initial state, never wrapped:
    ``afters`` holds the occurrence of each ``after``'s event, outermost
    first; ``occurrence`` that of a ``before``'s event (None under an
    ``always``); ``falsified`` the positions at which the innermost
    property is false, one for an ``always``, and for ``before …
    eventually`` the whole segment that precedes the occurrence."""

    afters: tuple[int, ...]
    occurrence: Optional[int]
    falsified: range

    def reads(self, shown: int) -> set[int]:
        """The run positions :func:`refutation_flaw` reads to check this
        proof against a witness of the first ``shown`` positions: each
        occurrence and the one before it, each falsified position, and,
        when one of them lies past the witness, every witness position."""
        named = set(self.falsified)
        for j in (*self.afters, *(() if self.occurrence is None else (self.occurrence,))):
            named.update((j - 1, j))
        if max(named, default=0) >= shown:
            named.update(range(shown))
        return named


def refutation_flaw(f: FtplFormula, index: int, violated: str, proof: Refutation,
                    steps: Mapping[int, _Step], shown: int, erased: bool) -> Optional[str]:
    """What is wrong with ``proof`` as a proof that ``f`` fails, reported at
    witness position ``index`` with the text ``violated``; None if nothing.

    ``steps`` holds the run positions ``proof.reads(shown)`` names, as far
    as the run goes; the witness is the run's first ``shown`` positions.
    The defining clauses are checked literally: each occurrence with
    ``event_holds`` on the two configurations around it, each falsified
    position with ``eval_cp``, and the order of the positions, ``s < j1 <
    j2 … ≤ i`` down the ``after``s from ``s = 0`` and ``s ≤ i < k`` under a
    ``before``.  The reported index must be the violation's position (the
    falsified one, or a ``before … eventually``'s occurrence), or, past the
    witness, the last witness position with its state and configuration,
    compared with parameter values erased when ``erased``.  The text must
    be the one :func:`_ev` reports for the innermost node.
    """
    def missing(e: EventSpec, j: int) -> Optional[str]:
        if j not in steps:
            return f"position {j} lies past the path's end"
        label, _q, c = steps[j]
        if not event_holds(steps[j - 1][2], c, label, e, j):
            return f"{e.op_name} {e.modality} does not occur at position {j}"
        return None

    events = []
    while isinstance(f, After):
        events.append(f.event)
        f = f.inner
    if len(proof.afters) != len(events):
        return f"{len(proof.afters)} after occurrences are given for {len(events)} afters"
    s = 0
    for e, j in zip(events, proof.afters):
        if j <= s:
            return f"the after occurrence at {j} does not follow position {s}"
        flaw = missing(e, j)
        if flaw is not None:
            return flaw
        s = j

    falsified, k = proof.falsified, proof.occurrence
    if isinstance(f, Always):
        cp = f.cp
        if k is not None or len(falsified) != 1 or falsified[0] < s:
            return f"{falsified} is not one position from {s} on"
        at = falsified[0]
    elif isinstance(f, Before):
        cp = f.trace.cp
        if k is None or k <= s:
            return f"the before occurrence at {k} does not follow position {s}"
        flaw = missing(f.event, k)
        if flaw is not None:
            return flaw
        if isinstance(f.trace, Always):
            if len(falsified) != 1 or not s <= falsified[0] < k:
                return f"{falsified} is not one position of the segment {range(s, k)}"
            at = falsified[0]
        else:
            if falsified != range(s, k):
                return f"{falsified} is not the segment {range(s, k)}"
            at = k
    else:
        return f"no finite prefix refutes {type(f).__name__.lower()}"
    for i in falsified:
        if i not in steps:
            return f"position {i} lies past the path's end"
        if eval_cp(cp, steps[i][2]):
            return f"[{print_cp(cp)}] holds at position {i}"

    expected = at if at < shown else _representative(steps, shown, at, erased)
    if expected is None:
        return f"no witness position repeats position {at}"
    if index != expected:
        return f"the violation is reported at {index}, not at {expected}"
    if violated != _violated(f):
        return f"the violation is reported as {violated!r}, not as {_violated(f)!r}"
    return None


def _representative(steps: Mapping[int, _Step], shown: int, at: int,
                    erased: bool) -> Optional[int]:
    """The last of the first ``shown`` positions with the state and
    configuration of position ``at``, or None."""
    def key(step: _Step) -> tuple[int, ComponentModel]:
        _label, q, c = step
        return q, erase_param_values(c) if erased else c

    wanted = key(steps[at])
    return next((j for j in range(shown - 1, -1, -1) if key(steps[j]) == wanted), None)
