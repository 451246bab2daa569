"""Scaled lasso workloads: generated files, and verdicts known by construction.

Every generated model has a ``Hub`` component (one ``TX`` input per cycle
slot and an int parameter ``level``) and N workers chained by ``TW``
bindings.  The cycle is made of K triplets ``AddX<j> run RmX<j>``: ``AddX<j>``
adds an ``Extra`` component ``X<j>`` bound to ``Hub.in<j>``, ``run`` starts
it, ``RmX<j>`` removes it again.  ``Bump`` increments ``Hub.level``; a cycle
that contains it is idempotent only once parameter values are erased.

Three path structures are generated:

* ``holds``  ``run (AddX0 run RmX0 ... [Bump])+`` -- every holds shape holds.
* ``late``   ``run (AddX1 run RmX1 ... RmX0 AddX0)+`` with ``X0`` present
  initially: ``X0`` disappears only at the end of each lap, so the fails
  shapes are violated late, on the first or second traversal.
* ``drift``  ``run (Bump AddX0 run RmX0 ...)+`` -- ``level`` grows by one per
  lap, which only a step budget can bound.

The seed draws each worker's class, which workers start stopped, and the
order of the model file; sizes, shapes, event targets and step budgets are
fixed, so every seed asks for the same amount of work.  A namespace prefixes
every component and operation name (``ns="R1"`` turns ``Hub`` into
``R1Hub``), so two lassos of one size share no input text.  The generator is
frozen on purpose: it does not share code with the test suite's
generators, so editing a test cannot change a workload.  Verdicts,
reasons and violation positions are derived here from the construction
(an abstract simulation of which ``X<j>`` are present and of ``level``), not
from ``check``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional

HOLDS_SHAPES = ("always-forall", "after-normal-always", "after-terminates-eventually",
                "eventually", "before-always")

_ANY_CLASS = "class(x) = Worker or class(x) = Store or class(x) = Hub or class(x) = Extra"
_NO_GHOST = "forall x in components (not class(x) = Ghost)"
# the component and operation names a namespace prefixes
_NAMES = re.compile(r"\b(Hub|W\d{4}|X\d+|AddX\d+|RmX\d+|Bump)\b")


@dataclass(frozen=True)
class Lasso:
    """One generated file set: model, recipes and path texts plus the path."""

    structure: str
    n: int
    k: int
    bump: bool
    arch: str
    ops: str
    rp: str
    prefix: tuple[str, ...]  # labels before the namespace is applied
    cycle: tuple[str, ...]
    ns: str = ""

    def named(self, text: str) -> str:
        """``text`` with the lasso's namespace applied to every name."""
        return _NAMES.sub(lambda m: self.ns + m.group(1), text) if self.ns else text

    @property
    def tag(self) -> str:
        return f"n{self.n}-k{self.k}{'-bump' if self.bump and self.structure == 'holds' else ''}"

    @property
    def n_states(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def state_at(self, pos: int) -> int:
        """Automaton state reached after ``pos`` transitions."""
        p = len(self.prefix)
        if pos < self.n_states:
            return pos
        return p + (pos - p) % len(self.cycle)

    def label_into(self, pos: int) -> str:
        """Label of the transition leading to position ``pos`` (``pos`` >= 1)."""
        prev = self.state_at(pos - 1)
        return (self.prefix + self.cycle)[prev]


@dataclass(frozen=True)
class ScaledCase:
    """One check: a file set, a formula and the expected outcome.

    ``violation`` is the position of the violating configuration for a
    ``fails`` verdict; ``witness_rule`` says how far the witness extends:
    ``"violation"`` (it ends at the violation), ``"repeat"`` (it runs to the
    first repeated (state, configuration) pair) or ``"budget"`` (it holds
    the whole window of ``max_steps`` transitions).
    """

    shape: str
    lasso: Lasso
    formula: str
    expect: str
    reason: Optional[str] = None
    max_steps: Optional[int] = None
    violation: Optional[int] = None
    witness_rule: Optional[str] = None
    violated: Optional[str] = None


def _model_text(rng: random.Random, n: int, k: int, with_x0: bool) -> str:
    hub = ["  component Hub {", "    class Hub", "    param level : int = 0",
           "    input head : TW"]
    hub += [f"    input in{j} : TX" for j in range(k)]
    hub.append("  }")
    lines = ["model Scaled {"] + hub
    ids = [f"W{i:04d}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)  # file order is seeded; printing order is by id
    for i in order:
        cls = "Worker" if rng.random() < 0.7 else "Store"
        state = "stopped" if rng.random() < 0.1 else "started"
        lines += [f"  component {ids[i]} {{", f"    class {cls}", "    input i : TW",
                  "    output o : TW", f"    state {state}", "  }"]
    if with_x0:
        lines += ["  component X0 {", "    class Extra", "    output feed : TX", "  }",
                  "  bind X0.feed -> Hub.in0"]
    for i in range(n - 1):
        lines.append(f"  bind {ids[i]}.o -> {ids[i + 1]}.i")
    lines.append(f"  bind {ids[-1]}.o -> Hub.head")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ops_text(k: int) -> str:
    lines = []
    for j in range(k):
        lines += [f"op AddX{j} {{", f"  add component X{j} {{", "    class Extra",
                  "    output feed : TX", "  }", f"  bind X{j}.feed -> Hub.in{j}", "}",
                  f"op RmX{j} {{", f"  remove component X{j}", "}"]
    lines += ["op Bump {", "  set Hub.level := param(Hub.level) + 1", "}"]
    return "\n".join(lines) + "\n"


def make_lasso(rng: random.Random, structure: str, n: int, k: int,
               bump: bool = False, ns: str = "") -> Lasso:
    triplets = [(f"AddX{j}", "run", f"RmX{j}") for j in range(k)]
    if structure == "holds":
        cycle = [lab for t in triplets for lab in t]
        if bump:
            cycle.insert(3 * (k // 2), "Bump")
    elif structure == "late":
        cycle = [lab for t in triplets[1:] for lab in t] + ["RmX0", "AddX0"]
    elif structure == "drift":
        cycle = ["Bump"] + [lab for t in triplets for lab in t]
    else:
        raise ValueError(f"unknown structure {structure!r}")
    prefix = ("run",)
    rp = " ".join(prefix) + " (" + " ".join(cycle) + ")+\n"
    plain = Lasso(structure, n, k, bump or structure == "drift",
                  _model_text(rng, n, k, with_x0=structure == "late"), _ops_text(k), rp,
                  prefix, tuple(cycle), ns)
    return replace(plain, arch=plain.named(plain.arch), ops=plain.named(plain.ops),
                   rp=plain.named(plain.rp))


# --- the abstract simulation the expectations are derived from ------------------

@dataclass(frozen=True)
class _Abstract:
    present: frozenset[str]  # ids of the X<j> components present
    level: int


def abstract_run(lasso: Lasso, length: int) -> list[_Abstract]:
    """Abstract configurations at positions 0..length."""
    cur = _Abstract(frozenset({"X0"}) if lasso.structure == "late" else frozenset(), 0)
    out = [cur]
    for pos in range(1, length + 1):
        label = lasso.label_into(pos)
        if label.startswith("AddX"):
            cur = _Abstract(cur.present | {label[3:]}, cur.level)
        elif label.startswith("RmX"):
            cur = _Abstract(cur.present - {label[2:]}, cur.level)
        elif label == "Bump":
            cur = _Abstract(cur.present, cur.level + 1)
        out.append(cur)
    return out


def _case(shape: str, lasso: Lasso, formula: str, expect: str, violated: Optional[str] = None,
          **fields) -> ScaledCase:
    """A case whose formula and violation text use the lasso's namespace."""
    return ScaledCase(shape, lasso, lasso.named(formula), expect,
                      violated=None if violated is None else lasso.named(violated), **fields)


def _first(seq: list[_Abstract], pred: Callable[[_Abstract], bool], start: int = 0) -> int:
    for pos in range(start, len(seq)):
        if pred(seq[pos]):
            return pos
    raise AssertionError("construction never reaches the expected configuration")


def _normal_add(lasso: Lasso, seq: list[_Abstract], x: str) -> int:
    """First position whose incoming AddX<x> changed the model."""
    for pos in range(1, len(seq)):
        if lasso.label_into(pos) == f"Add{x}" and x not in seq[pos - 1].present:
            return pos
    raise AssertionError("construction has no normal occurrence")


def holds_cases(lasso: Lasso) -> list[ScaledCase]:
    k = lasso.k
    a = k // 2
    formulas = {
        "always-forall": f"always [forall x in components ({_ANY_CLASS})]",
        "after-normal-always":
            f"after AddX{a} normal always [{_NO_GHOST} and bound(W0000.o, W0001.i)]",
        "after-terminates-eventually":
            f"after RmX{a} terminates eventually "
            f"[exists x in components (class(x) = Extra)]",
        "eventually": f"eventually [{_NO_GHOST} and component(X{k - 1})]",
        "before-always": f"before RmX{k - 1} normal always "
                         f"[forall x in bindings (present(x))]",
    }
    return [_case(shape, lasso, formulas[shape], "holds") for shape in HOLDS_SHAPES]


def fails_cases(lasso: Lasso) -> list[ScaledCase]:
    """The four late-violation shapes on a ``late`` lasso."""
    assert lasso.structure == "late"
    seq = abstract_run(lasso, 3 * lasso.n_states)
    gone = lambda s: "X0" not in s.present  # noqa: E731
    x0_cp = f"(component(X0) and {_NO_GHOST})"  # as print_cp writes it

    always_at = _first(seq, gone)
    event = _normal_add(lasso, seq, "X0")
    after_at = _first(seq, gone, event)  # in the lap after the event
    before_at = _first(seq[:event], gone)  # in the segment preceding it
    return [
        _case("always-late", lasso, f"always [{x0_cp}]", "fails",
              violation=always_at, witness_rule="violation",
              violated=f"always [{x0_cp}] violated"),
        _case("after-normal-always-late", lasso,
              f"after AddX0 normal always [{x0_cp}]", "fails",
              violation=after_at, witness_rule="violation",
              violated=f"always [{x0_cp}] violated"),
        _case("eventually-never", lasso,
              "eventually [exists x in components (class(x) = Ghost)]", "fails",
              witness_rule="repeat",
              violated="eventually [exists x in components (class(x) = Ghost)] "
                       "never satisfied (cycle stabilized)"),
        _case("before-always-late", lasso,
              "before AddX0 normal always [component(X0)]", "fails",
              violation=before_at, witness_rule="repeat",
              violated="before AddX0 normal: always [component(X0)] "
                       "violated in preceding segment"),
    ]


def drift_cases(lasso: Lasso) -> list[ScaledCase]:
    """Bounded checks of ``always [Hub.level < T]`` on a ``drift`` lasso.

    The cycle fails the idempotence gate, so the checker unrolls the path
    up to the budget.  With the budget past the T-th ``Bump`` the property
    fails inside the window; with the budget short of it the verdict is
    ``unknown(step-budget-exhausted)``.  Budgets stay within 2·|Q|.
    """
    assert lasso.structure == "drift"
    seq = abstract_run(lasso, 3 * lasso.n_states)
    second = _first(seq, lambda s: s.level >= 2)
    third = _first(seq, lambda s: s.level >= 3)
    fail_budget = min(2 * lasso.n_states, third - 1)
    short_budget = (second + third) // 2
    return [
        _case("drift-fails", lasso, "always [Hub.level < 2]", "fails",
              max_steps=fail_budget, violation=second, witness_rule="budget",
              violated="always [Hub.level < 2] violated"),
        _case("drift-budget", lasso, "always [Hub.level < 3]", "unknown",
              reason="step-budget-exhausted", max_steps=short_budget),
    ]
