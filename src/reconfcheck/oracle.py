"""Brute-force ground truth: unfold the lasso, evaluate the semantics literally.

The automaton is unrolled into the concrete configuration sequence until a
(state, model) pair recurs — the sequence is then ultimately periodic and
every quantifier ranges over finitely many behaviour classes — or until
the path ends or 64 laps of the cycle are unrolled.  Evaluation follows the
defining clauses of the temporal operators directly, with a third
"undetermined" outcome when a truncated unfolding cannot settle the
answer.  The verdict looks at the unrolled window after 2, 4, 8, 16 and 32
laps too, and stops at the first that settles it: a truncated window
settles only through a violation or a witness it contains, and every longer
window contains them too.  Each configuration property is evaluated at
most once per position of an unfolding; every window of it reads the same
values.  Deliberately naive; being obviously correct is its entire job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from .ftpl import After, Always, Before, Eventually, EventSpec, FtplFormula, \
    TraceProperty, erasure_invariant, event_holds, print_cp
from .model import ComponentModel, ConfigProperty, erase_param_values, eval_cp
from .pathspec import PathAutomaton
# apply_evolution stays importable because perfbench/tracer.py rebinds it here
from .reconfig import EvolutionOperation, Unfolding, apply_evolution, run_path  # noqa: F401


@dataclass(frozen=True)
class LassoStep:
    state: int
    model: ComponentModel
    incoming_label: Optional[str]  # None on the first entry


# configuration property values by the property node's id (the node is kept
# with them) and wrapped run position
_Values = dict[int, tuple[ConfigProperty, dict[int, bool]]]


@dataclass(frozen=True)
class ConcreteLasso:
    """The unfolded sequence plus, when found, where it starts repeating.

    ``period_start = j`` means the (state, model) pair that would follow
    the last recorded entry equals the pair at index ``j``; the suffix from
    ``j`` repeats forever.  ``complete`` marks a finite path unfolded to
    its terminal state.  ``erased_compare`` records that the repetition was
    detected on parameter-erased models: the suffix then repeats only up to
    parameter values, which suffices for erasure-invariant formulas.
    ``values`` keeps the property values evaluated on these entries (see
    :meth:`_Sigma.find`); the windows of one unfolding share it.
    """

    automaton: PathAutomaton
    entries: tuple[LassoStep, ...]
    period_start: Optional[int]
    complete: bool
    erased_compare: bool = False
    values: _Values = field(default_factory=dict, compare=False, repr=False)

    @property
    def period(self) -> Optional[int]:
        if self.period_start is None:
            return None
        return len(self.entries) - self.period_start


# the laps after which a still unfinished unfolding is evaluated, and its length
_LOOKS = (2, 4, 8, 16, 32)
_MAX_ROUNDS = 64


def _windows(a: PathAutomaton, c0: ComponentModel, ops: Mapping[str, EvolutionOperation],
             max_rounds: int, compare_erased: bool,
             looks: tuple[int, ...] = ()) -> Iterator[ConcreteLasso]:
    """The unfolding from the initial state as windows of one lazy run: the
    first ``r`` laps for each ``r`` in ``looks`` the run lasts, then the
    whole of it, as :func:`unfold_to_lasso` returns it."""
    unfolding = Unfolding(a, 0, c0, run_path(a, ops, 0, c0), erased=compare_erased)
    entries: list[LassoStep] = []
    values: _Values = {}  # entry j is the same model in every window
    rounds = 0
    for q, label, c in unfolding:
        lap = bool(entries) and entries[-1].state == a.q_max  # in over the back edge
        if lap:
            rounds += 1
        entries.append(LassoStep(q, c, label))
        if rounds >= max_rounds:
            break
        if lap and rounds in looks:
            yield ConcreteLasso(a, tuple(entries), None, False, compare_erased, values)
    yield ConcreteLasso(a, tuple(entries), unfolding.period_start, unfolding.complete,
                        compare_erased, values)


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


# --- literal evaluation ------------------------------------------------------------

# (truth value or None when undetermined, (index, description) of the first
# found violation or None)
_EvalResult = tuple[Optional[bool], Optional[tuple[int, str]]]


class _Sigma:
    """Indexed access to the ultimately periodic sequence."""

    def __init__(self, l: ConcreteLasso):
        self.l = l
        self.n = len(l.entries)
        self.ps = l.period_start
        self.t = None if self.ps is None else self.n - self.ps
        self.erased = l.erased_compare
        self.values = l.values

    def wrap(self, i: int) -> int:
        if i < self.n:
            return i
        assert self.ps is not None
        return self.ps + (i - self.ps) % self.t

    def cfg(self, i: int) -> ComponentModel:
        return self.l.entries[self.wrap(i)].model

    def find(self, cp: ConfigProperty, positions: range, value: bool) -> Optional[int]:
        """The first of ``positions`` at which ``cp`` evaluates to ``value``.

        ``cp`` is evaluated at most once per wrapped position of the
        unfolding; the node is kept with its values so its id cannot be
        reused, and an evaluation that raises stores nothing."""
        kept = self.values.get(id(cp))
        if kept is None:
            kept = self.values[id(cp)] = (cp, {})
        known, entries = kept[1], self.l.entries
        for i in positions:
            j = i if i < self.n else self.wrap(i)
            v = known.get(j)
            if v is None:
                v = known[j] = eval_cp(cp, entries[j].model)
            if v == value:
                return i
        return None

    def state(self, i: int) -> int:
        return self.l.entries[self.wrap(i)].state

    def label(self, i: int) -> str:
        # label of the transition into position i = the one leaving state(i-1)
        return self.l.automaton.labels[self.state(i - 1)]

    def event(self, i: int, e: EventSpec) -> bool:
        if i <= 0:
            return False
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


def _ev(f: FtplFormula, sig: _Sigma, s: int) -> _EvalResult:
    if sig.ps is not None and s >= sig.n:
        s = sig.ps + (s - sig.ps) % sig.t

    if isinstance(f, Always):
        i = sig.find(f.cp, _cp_range(sig, s), False)
        if i is not None:
            return False, (i, f"always [{print_cp(f.cp)}] violated")
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
                if isinstance(f.trace, Always):
                    desc = (f"before {f.event.op_name} {f.event.modality}: "
                            f"always [{print_cp(f.trace.cp)}] violated in preceding segment")
                    return False, (bad, desc)
                desc = (f"before {f.event.op_name} {f.event.modality}: "
                        f"eventually [{print_cp(f.trace.cp)}] unsatisfied in preceding segment")
                return False, (sig.wrap(i), desc)
        return (None, None) if undetermined else (True, None)

    raise TypeError(f"not a formula node: {f!r}")


def oracle_eval(f: FtplFormula, l: ConcreteLasso) -> Optional[bool]:
    """Literal truth of the formula on the unfolded path.

    Total whenever the lasso has a period or is a complete finite path.
    On a truncated unfolding the result is None unless the explored window
    already determines it (a found violation, a found witness).
    """
    return _ev(f, _Sigma(l), 0)[0]


def oracle_eval_detailed(f: FtplFormula, l: ConcreteLasso) -> _EvalResult:
    """Like :func:`oracle_eval` but with the first violation's location."""
    sig = _Sigma(l)
    value, info = _ev(f, sig, 0)
    if info is not None:
        info = (sig.wrap(info[0]), info[1])
    return value, info


def _pass_verdict(f: FtplFormula, a: PathAutomaton, c0: ComponentModel,
                  ops: Mapping[str, EvolutionOperation], compare_erased: bool) -> Optional[bool]:
    """The first determined value on the windows of one unfolding."""
    for lasso in _windows(a, c0, ops, _MAX_ROUNDS, compare_erased, _LOOKS):
        value = oracle_eval(f, lasso)
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

    Total on every lasso whose cycle is idempotent in the sense matching
    the formula (structural idempotence in general, idempotence up to
    parameter erasure for erasure-invariant formulas).
    """
    value = _pass_verdict(f, a, c0, ops, compare_erased=False)
    if value is None and erasure_invariant(f, ops):
        value = _pass_verdict(f, a, c0, ops, compare_erased=True)
    return value
