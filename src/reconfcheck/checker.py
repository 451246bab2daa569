"""Mark-based property checking over lasso automata.

The traversal mirrors a model checker's marking discipline: every operator
instance owns a fresh mark map and walks the automaton, applying each
transition at most twice (``unchecked -> again -> checked``), so any check
costs at most 2|Q| operation applications per instance.

Soundness over the repeated cycle rests on an idempotence gate: before
checking a formula on a lasso, the composed cycle is applied twice at its
entry configuration and the results compared (parameter values erased when
the formula never reads parameters).  A cycle failing the gate yields an
``unknown`` verdict unless a step budget requests bounded checking, in
which case the path is unrolled up to the budget and the semantics
evaluated literally on the explored window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .adl import model_digest
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
# the walk compiles properties instead of calling eval_cp; the name stays
# importable because perfbench/tracer.py rebinds it in this module
from .model import CompiledCp, ComponentModel, ConfigProperty, compile_cp, \
    erase_param_values, eval_cp, model_equal, validate_model  # noqa: F401
from .oracle import _unfold, oracle_eval_detailed, oracle_verdict
from .pathspec import Mark, PathAutomaton, PathExpr, as_path_expr, fresh_marks, \
    residual_from
from .reconfig import EvolutionOperation, apply_evolution, apply_sequence, \
    is_idempotent_sequence

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

REASON_BUDGET = "step-budget-exhausted"
REASON_CYCLE = "non-idempotent-cycle"


class CheckError(Exception):
    """Unresolvable inputs: unknown operation names, invalid initial model,
    or an oracle cross-check disagreement."""


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
    idempotence gate's own applications are not charged against it).

    ignore_params forces the erased idempotence gate; that is only sound
    for formulas that cannot observe parameter values, which the checker
    otherwise establishes itself before selecting the erased comparison.
    """

    max_steps: Optional[int] = None
    ignore_params: bool = False
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

    @classmethod
    def holds(cls, stats: CheckStats) -> "Verdict":
        return cls(HOLDS, stats=stats)

    @classmethod
    def fails(cls, witness: TraceWitness, stats: CheckStats) -> "Verdict":
        return cls(FAILS, witness=witness, stats=stats)

    @classmethod
    def unknown(cls, reason: str, residual: PathExpr, reached: ComponentModel,
                stats: CheckStats) -> "Verdict":
        return cls(UNKNOWN, reason=reason, residual=residual, reached=reached,
                   stats=stats)

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


class _Instance:
    """Per-operator bookkeeping for the termination instrumentation."""

    __slots__ = ("transitions", "start")

    def __init__(self, start: int):
        self.transitions = 0
        self.start = start


class _Walk:
    """Shared walk context: applies transitions, charges budgets and counters.

    ``pair_erased`` switches stabilization detection (in the unfolding
    operators) to parameter-erased comparison — the right notion when the
    cycle was admitted through the erased idempotence gate, in which case
    the formula cannot observe parameter values anyway.

    Properties are compiled on first use and kept for the walk only, so a
    compiled closure lives exactly as long as one check.
    """

    def __init__(self, a: PathAutomaton, ops: Mapping[str, EvolutionOperation],
                 max_steps: Optional[int], pair_erased: bool = False):
        self.a = a
        self.ops = ops
        self.remaining = max_steps
        self.pair_erased = pair_erased
        self.transitions = 0
        self.cp_evals = 0
        self.max_instance = 0
        self.compiled: dict[ConfigProperty, CompiledCp] = {}

    def pair_key(self, m: ComponentModel) -> ComponentModel:
        return erase_param_values(m) if self.pair_erased else m

    def apply(self, inst: _Instance, q: int, c: ComponentModel):
        nxt = self.a.succ(q)
        assert nxt is not None, "apply() at a terminal state"
        if self.remaining is not None:
            if self.remaining == 0:
                raise _Budget(q, c)
            self.remaining -= 1
        label, q2 = nxt
        inst.transitions += 1
        self.transitions += 1
        if inst.transitions > self.max_instance:
            self.max_instance = inst.transitions
        # termination invariant: two traversals suffice for any operator
        if inst.transitions > 2 * self.a.n_states:
            raise AssertionError(
                f"operator instance applied {inst.transitions} transitions, "
                f"exceeding 2*|Q| = {2 * self.a.n_states}")
        c2 = apply_evolution(self.ops[label], c).result
        return label, q2, c2

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


def _after_loop(e: EventSpec, on_fire: Callable[[int, ComponentModel, int], bool],
                walk: _Walk, q: int, c: ComponentModel, pos: int,
                marks: dict[int, Mark], collect_all: bool) -> bool:
    """Scan for occurrences of ``e``, dispatching ``on_fire`` at each one.

    With ``collect_all`` false the first occurrence decides (the classic
    first-occurrence rule, valid for suffix-monotone continuations);
    otherwise every occurrence met during two traversals is checked.  Two
    traversals are needed because an operation that changed the model on
    the first pass can become the identity on the next (and vice versa),
    flipping which modality its transitions satisfy.  ``pos`` is the run
    position of (q, c); ``on_fire`` receives the state, configuration and
    position after each occurrence.
    """
    inst = _Instance(q)
    pending: list[tuple[int, ComponentModel, int]] = []
    while True:
        if walk.a.succ(q) is None:
            break  # finite path exhausted: no further occurrence possible
        mk = marks[q]
        if mk is Mark.CHECKED:
            break  # both passes scanned
        if inst.start == 0 and mk is Mark.UNCHECKED and \
                any(marks[j] is not Mark.AGAIN for j in range(q)):
            raise AssertionError("first-pass invariant: all earlier states marked again")
        marks[q] = Mark.AGAIN if mk is Mark.UNCHECKED else Mark.CHECKED
        label, q2, c2 = walk.apply(inst, q, c)
        pos += 1
        if event_holds(c, c2, label, e, pos):
            if not collect_all:
                return on_fire(q2, c2, pos)
            pending.append((q2, c2, pos))
        q, c = q2, c2
    for q2, c2, pos2 in pending:
        if not on_fire(q2, c2, pos2):
            return False
    return True  # event never occurs (or every occurrence passed): vacuous truth


def _always_loop(cp: ConfigProperty, walk: _Walk, q: int, c: ComponentModel,
                 pos: int, marks: dict[int, Mark]) -> bool:
    """Check ``cp`` on every configuration from (q, c) onwards.

    The walk re-enters the cycle once: intermediate configurations of the
    second traversal are exactly the ones repeated forever afterwards
    (given the idempotence gate), so two passes cover the whole suffix.
    """
    inst = _Instance(q)
    while True:
        if not walk.eval_cp(cp, c):
            raise _Violation(pos, f"always [{print_cp(cp)}] violated")
        nxt = walk.a.succ(q)
        if nxt is None or marks[q] is Mark.CHECKED:
            return True
        if inst.start == 0 and any(marks[j] is Mark.UNCHECKED for j in range(q)):
            raise AssertionError(
                "always invariant: all earlier states marked again or checked")
        marks[q] = Mark.AGAIN if marks[q] is Mark.UNCHECKED else Mark.CHECKED
        _label, q, c = walk.apply(inst, q, c)
        pos += 1


def _eventually_scan(cp: ConfigProperty, walk: _Walk, q: int, c: ComponentModel,
                     pos: int) -> bool:
    """True as soon as one reachable configuration satisfies ``cp``.

    Unfolds until the (state, model) pair repeats or the path ends; each
    state is applied at most twice on the way.
    """
    inst = _Instance(q)
    if walk.eval_cp(cp, c):
        return True
    seen: dict[int, list[ComponentModel]] = {q: [walk.pair_key(c)]}
    while True:
        nxt = walk.a.succ(q)
        if nxt is None:
            raise _Violation(pos, f"eventually [{print_cp(cp)}] never satisfied "
                                  f"on the finite path")
        _label, q2, c2 = walk.apply(inst, q, c)
        k2 = walk.pair_key(c2)
        if any(model_equal(prev, k2) for prev in seen.get(q2, ())):
            raise _Violation(pos, f"eventually [{print_cp(cp)}] never satisfied "
                                  f"(cycle stabilized)")
        pos += 1
        seen.setdefault(q2, []).append(k2)
        if walk.eval_cp(cp, c2):
            return True
        q, c = q2, c2


def _unfold_instrumented(walk: _Walk, q: int, c: ComponentModel) \
        -> tuple[list[int], list[ComponentModel], list[ComponentModel], Optional[int]]:
    """States, models and comparison keys (parameter-erased models when
    ``walk.pair_erased``) from (q, c) until the (state, key) pair repeats,
    with the index where the repeated suffix begins, or until the path
    ends, with None."""
    inst = _Instance(q)
    states, models, keys = [q], [c], [walk.pair_key(c)]
    by_state: dict[int, list[int]] = {q: [0]}
    while True:
        nxt = walk.a.succ(q)
        if nxt is None:
            return states, models, keys, None
        _label, q2, c2 = walk.apply(inst, q, c)
        k2 = walk.pair_key(c2)
        for idx in by_state.get(q2, ()):
            if model_equal(keys[idx], k2):
                return states, models, keys, idx
        states.append(q2)
        models.append(c2)
        keys.append(k2)
        by_state.setdefault(q2, []).append(len(models) - 1)
        q, c = q2, c2


def _before_check(e: EventSpec, tr: TraceProperty, walk: _Walk, q: int,
                  c: ComponentModel, pos: int) -> bool:
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
    states, models, keys, ps = _unfold_instrumented(walk, q, c)
    n = len(models)
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
                return True  # and so in every later segment
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
            return True  # every configuration passed: so does every later segment
    return True


def _eval_formula(f: FtplFormula, walk: _Walk, q: int, c: ComponentModel,
                  pos: int) -> bool:
    """Evaluate at run position ``pos`` with a fresh mark map per operator
    node; violations raise."""
    if isinstance(f, After):
        def on_fire(q2: int, c2: ComponentModel, pos2: int) -> bool:
            return _eval_formula(f.inner, walk, q2, c2, pos2)

        return _after_loop(f.event, on_fire, walk, q, c, pos, fresh_marks(walk.a),
                           collect_all=not is_suffix_monotone(f.inner))
    if isinstance(f, Before):
        return _before_check(f.event, f.trace, walk, q, c, pos)
    if isinstance(f, Always):
        return _always_loop(f.cp, walk, q, c, pos, fresh_marks(walk.a))
    if isinstance(f, Eventually):
        return _eventually_scan(f.cp, walk, q, c, pos)
    raise TypeError(f"not a formula node: {f!r}")


# --- public operator functions (continuation style, no step budgets) --------------

def check_after(e: EventSpec, check_f: Callable[[int, ComponentModel], bool],
                a: PathAutomaton, ops: Mapping[str, EvolutionOperation],
                q: int, c: ComponentModel,
                marks: Optional[dict[int, Mark]] = None) -> bool:
    """Dispatch ``check_f`` at the first occurrence of ``e`` from (q, c).

    Returns vacuous truth when the event never occurs on the lasso.
    """
    walk = _Walk(a, ops, None)
    if marks is None:
        marks = fresh_marks(a)
    return _after_loop(e, lambda q2, c2, _pos: bool(check_f(q2, c2)),
                       walk, q, c, 0, marks, collect_all=False)


def check_always(cp: ConfigProperty, a: PathAutomaton,
                 ops: Mapping[str, EvolutionOperation], q: int, c: ComponentModel,
                 marks: Optional[dict[int, Mark]] = None) -> bool:
    """Does ``cp`` hold on every configuration reachable from (q, c)?"""
    walk = _Walk(a, ops, None)
    if marks is None:
        marks = fresh_marks(a)
    try:
        return _always_loop(cp, walk, q, c, 0, marks)
    except _Violation:
        return False


def check_eventually(cp: ConfigProperty, a: PathAutomaton,
                     ops: Mapping[str, EvolutionOperation], c0: ComponentModel,
                     q: int = 0) -> bool:
    """Does some configuration of the (stabilized) path satisfy ``cp``?

    Stabilization is detected up to parameter erasure when ``cp`` never
    reads a parameter, mirroring the idempotence gate's comparison mode.
    """
    walk = _Walk(a, ops, None,
                 pair_erased=erasure_invariant(Eventually(cp), ops))
    try:
        return _eventually_scan(cp, walk, q, c0, 0)
    except _Violation:
        return False


def check_before(e: EventSpec, tr: TraceProperty, a: PathAutomaton,
                 ops: Mapping[str, EvolutionOperation], c0: ComponentModel,
                 q: int = 0) -> bool:
    """Is every occurrence of ``e`` preceded by a segment satisfying ``tr``?"""
    walk = _Walk(a, ops, None,
                 pair_erased=erasure_invariant(Before(e, tr), ops))
    try:
        return _before_check(e, tr, walk, q, c0, 0)
    except _Violation:
        return False


# --- the checker entry point -------------------------------------------------------

def formula_effective_ignore_params(f: FtplFormula, opts: CheckOptions,
                                    ops: Mapping[str, EvolutionOperation]) -> bool:
    # formulas that cannot observe parameter values (neither through
    # property leaves nor through events on parameter-updating operations)
    # may ignore parameter drift when judging cycle idempotence
    return opts.ignore_params or erasure_invariant(f, ops)


def cycle_entry_model(a: PathAutomaton, c0: ComponentModel,
                      ops: Mapping[str, EvolutionOperation]) -> ComponentModel:
    return apply_sequence([ops[l] for l in a.prefix_labels()], c0)


def _replay(a: PathAutomaton, ops: Mapping[str, EvolutionOperation],
            c0: ComponentModel, length: int) -> Iterator[tuple[int, str, ComponentModel]]:
    """The first ``length`` (state, incoming label, configuration) triples of
    the run from the initial state; operations are pure, so this rebuilds
    exactly the configurations the walk saw."""
    q, c = 0, c0
    yield q, "", c
    for _ in range(length - 1):
        label, q = a.succ(q)
        c = apply_evolution(ops[label], c).result
        yield q, label, c


def _witness(configs: Iterable[tuple[int, str, ComponentModel]], index: int,
             violated: str) -> TraceWitness:
    steps = tuple(WitnessStep(q, label, model_digest(c)) for q, label, c in configs)
    return TraceWitness(steps, index, violated)


def check(f: FtplFormula, a: PathAutomaton, c0: ComponentModel,
          ops: Mapping[str, EvolutionOperation],
          opts: Optional[CheckOptions] = None) -> Verdict:
    """Check a temporal formula along a reconfiguration path.

    Starts from the automaton's initial state with ``c0``.  Lassos are
    admitted through the idempotence gate; a failing gate yields
    ``unknown(non-idempotent-cycle)`` unless a step budget is set, in which
    case the window explorable within the budget is evaluated literally.
    A budget exhausted mid-walk yields ``unknown(step-budget-exhausted)``
    carrying the unexplored residual path and the configuration reached, so
    the check can be relaunched from there.
    """
    opts = opts or CheckOptions()
    bad = validate_model(c0)
    if bad:
        raise CheckError("invalid initial model: " + "; ".join(bad))
    for label in a.labels:
        if label not in ops:
            raise CheckError(f"path label '{label}' is not a known operation")
    for event in formula_events(f):
        if event.op_name not in ops:
            raise CheckError(f"event operation '{event.op_name}' is not a known operation")

    gate_ok = True
    effective_ignore = False
    if a.has_cycle:
        effective_ignore = formula_effective_ignore_params(f, opts, ops)
        entry = cycle_entry_model(a, c0, ops)
        cycle_ops = [ops[l] for l in a.cycle_labels()]
        gate_ok = is_idempotent_sequence(cycle_ops, entry,
                                         ignore_params=effective_ignore)

    if not gate_ok and opts.max_steps is None:
        # nothing was explored: the residual is the whole path
        return Verdict.unknown(REASON_CYCLE, residual=as_path_expr(a), reached=c0,
                               stats=CheckStats(0, 0, 0))

    if gate_ok:
        walk = _Walk(a, ops, opts.max_steps, pair_erased=effective_ignore)
        try:
            _eval_formula(f, walk, 0, c0, 0)
            verdict = Verdict.holds(walk.stats())
        except _Violation as v:
            witness = _witness(_replay(a, ops, c0, v.length), v.index, v.violated)
            verdict = Verdict.fails(witness, walk.stats())
        except _Budget as b:
            verdict = Verdict.unknown(REASON_BUDGET, residual=residual_from(a, b.state),
                                      reached=b.model, stats=walk.stats())
    else:
        # bounded checking over a non-idempotent cycle: unroll up to the
        # budget and evaluate the defining semantics on the explored window
        lasso = _unfold(a, c0, ops, max_transitions=opts.max_steps,
                        max_rounds=opts.max_steps + 1)
        applied = len(lasso.entries) - 1
        stats = CheckStats(applied, 0, applied)
        value, info = oracle_eval_detailed(f, lasso)
        if value is True:
            verdict = Verdict.holds(stats)
        elif value is False:
            idx, desc = info
            witness = _witness(((s.state, s.incoming_label or "", s.model)
                                for s in lasso.entries), idx, desc)
            verdict = Verdict.fails(witness, stats)
        else:
            last = lasso.entries[-1]
            verdict = Verdict.unknown(REASON_BUDGET,
                                      residual=residual_from(a, last.state),
                                      reached=last.model, stats=stats)

    if opts.oracle_crosscheck and verdict.status in (HOLDS, FAILS):
        reference = oracle_verdict(f, a, c0, ops)
        if reference is not None and reference != verdict.is_holds:
            raise CheckError(
                f"oracle cross-check disagreement: checker says {verdict.status}, "
                f"oracle says {'holds' if reference else 'fails'}")
    return verdict
