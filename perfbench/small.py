"""Small acceptance-style cases, and the HTTP case study, as input texts.

``generate`` draws random lassos from the same distribution as the
acceptance suite's checker-versus-oracle criterion: a ``Core`` component
with two int parameters plus 1-4 others, 1-4 random recipes of 1-3
primitive steps, a prefix of 0-3 operations and (with probability 3/4) a
cycle of 1-4, and a random formula of depth <= 2.  A quarter of the cases
are bounded, with ``max_steps`` drawn from [1, 2·|Q|].  The distribution is
a frozen copy: it does not import the test suite's generators, so a later
test edit cannot silently change this workload.

Each case is kept as the text a user would hand the checker (printed by
the library's canonical printers), so a timed check starts from parsing.
``renamed`` gives a case new component and operation names, so a workload
can repeat a case's cost without repeating its input text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from reconfcheck import (
    AddComponent,
    After,
    Always,
    Before,
    Bind,
    Binding,
    BinOp,
    Component,
    ComponentModel,
    Eventually,
    EventSpec,
    IntLiteral,
    Param,
    ParamRef,
    PathExpr,
    RemoveComponent,
    STARTED,
    STOPPED,
    SetParam,
    Start,
    Stop,
    Unbind,
    print_formula,
    print_model,
    print_path,
)
from reconfcheck.adl import RecipeSet, print_recipes
from reconfcheck.model import (
    And,
    Bound,
    ComponentPresent,
    Exists,
    FalseAtom,
    ForAll,
    Implies,
    Not,
    Or,
    ParamCmp,
    Started,
    Subcomponent,
    TrueAtom,
    VarClassIs,
    VarPresent,
)

PORT_CLASSES = ("T1", "T2", "T3")
COMPONENT_CLASSES = ("Alpha", "Beta", "FileStore")
MODALITIES = ("normal", "exceptional", "terminates")
DYNAMIC_IDS = ("X0", "X1")

BOUNDED_SHARE = 0.25
HTTP_EVERY = 8  # one HTTP case-study check per this many checks
# Draws of ``heavy_case`` that are oracle-heavy (``expect.is_oracle_heavy``):
# the first two such i, as ``expect.heavy_draws(2)`` finds them.
HEAVY_DRAWS = (2166, 4946)

_DECLARED = re.compile(r"\b(?:component|op)\s+([A-Za-z_][A-Za-z0-9_]*)")


@dataclass(frozen=True)
class SmallCase:
    """Input texts of one library check, plus hand-written expectations.

    ``expect`` is filled in for the HTTP cases only; the generated cases get
    theirs from the brute-force oracle (``expect.OracleAnswer``).
    """

    name: str
    arch: str
    ops: str
    rp: str
    formula: str
    max_steps: Optional[int] = None
    expect: Optional[str] = None
    reason: Optional[str] = None
    violation_state: Optional[int] = None
    witness_len: Optional[int] = None


def _model(rng: random.Random) -> ComponentModel:
    comps: dict[str, Component] = {
        "Core": Component(id="Core", cls="CoreClass",
                          params={"p": Param("int", rng.randint(0, 20)),
                                  "q": Param("int", rng.randint(0, 20))},
                          inputs={"cin": "T1"}, outputs={"cout": "T2"},
                          state=rng.choice((STARTED, STOPPED)))}
    ids = [f"C{i}" for i in range(rng.randint(1, 4))]
    for cid in ids:
        inputs: dict[str, str] = {}
        outputs: dict[str, str] = {}
        if rng.random() < 0.7:
            inputs["in1"] = rng.choice(PORT_CLASSES)
        if rng.random() < 0.3:
            inputs["in2"] = rng.choice(PORT_CLASSES)
        if rng.random() < 0.7:
            outputs["out1"] = rng.choice(PORT_CLASSES)
        params: dict[str, Param] = {}
        if rng.random() < 0.2:
            params["tag"] = Param("string", rng.choice(("red", "blue")))
        if rng.random() < 0.2:
            params["on"] = Param("bool", rng.random() < 0.5)
        comps[cid] = Component(id=cid, cls=rng.choice(COMPONENT_CLASSES), params=params,
                               inputs=inputs, outputs=outputs,
                               state=rng.choice((STARTED, STOPPED)))
    # containment forest over the C* components; composites lose their params
    for i, cid in enumerate(ids):
        if i > 0 and rng.random() < 0.3:
            pc = comps[ids[rng.randrange(i)]]
            comps[pc.id] = Component(id=pc.id, cls=pc.cls, params={}, inputs=pc.inputs,
                                     outputs=pc.outputs, contains=pc.contains | {cid},
                                     state=pc.state)
    outs = [(cid, port, cls) for cid, c in comps.items() for port, cls in c.outputs.items()]
    ins = [(cid, port, cls) for cid, c in comps.items() for port, cls in c.inputs.items()]
    rng.shuffle(outs)
    bindings = set()
    taken = set()
    for oc, op_, ocls in outs:
        targets = [(ic, ip) for ic, ip, icls in ins if icls == ocls and (ic, ip) not in taken]
        if targets and rng.random() < 0.6:
            ic, ip = rng.choice(targets)
            bindings.add(Binding(oc, op_, ic, ip))
            taken.add((ic, ip))
    return ComponentModel(name="G", components=comps, bindings=frozenset(bindings))


def _endpoints(m: ComponentModel):
    outs = [(cid, p, cls) for cid, c in m.components.items() for p, cls in c.outputs.items()]
    ins = [(cid, p, cls) for cid, c in m.components.items() for p, cls in c.inputs.items()]
    outs.append(("X0", "xout", "T1"))
    ins.append(("X1", "xin", "T1"))
    return outs, ins


def _step(rng: random.Random, m: ComponentModel):
    outs, ins = _endpoints(m)
    removable = [cid for cid in m.components if cid != "Core"] + list(DYNAMIC_IDS)
    kind = rng.choice(("add", "remove", "bind", "unbind", "set", "set", "flip"))
    if kind == "add":
        if rng.choice(DYNAMIC_IDS) == "X0":
            return AddComponent(Component(id="X0", cls="FileStore", outputs={"xout": "T1"}))
        return AddComponent(Component(id="X1", cls="FileStore", inputs={"xin": "T1"}))
    if kind == "remove":
        return RemoveComponent(rng.choice(removable))
    if kind in ("bind", "unbind"):
        oc, op_, ocls = rng.choice(outs)
        compatible = [(ic, ip) for ic, ip, icls in ins if icls == ocls]
        if not compatible:
            return Stop(rng.choice(list(m.components)))
        ic, ip = rng.choice(compatible)
        b = Binding(oc, op_, ic, ip)
        return Bind(b) if kind == "bind" else Unbind(b)
    if kind == "set":
        target = rng.choice(("p", "q"))
        expr = rng.choice((
            IntLiteral(rng.randint(0, 30)),
            BinOp("+", ParamRef("Core", target), IntLiteral(rng.randint(1, 5))),
            ParamRef("Core", rng.choice(("p", "q"))),
            BinOp("*", ParamRef("Core", target), IntLiteral(2)),
        ))
        return SetParam("Core", target, expr)
    cid = rng.choice(list(m.components))
    return Stop(cid) if rng.random() < 0.5 else Start(cid)


def _recipes(rng: random.Random, m: ComponentModel) -> RecipeSet:
    return RecipeSet({f"Op{i}": tuple(_step(rng, m) for _ in range(rng.randint(1, 3)))
                      for i in range(rng.randint(1, 4))})


def _path(rng: random.Random, names: list[str]) -> PathExpr:
    pool = names + ["run"]
    prefix = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
    cycle = None
    if rng.random() < 0.75:
        cycle = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
    if cycle is None and not prefix:
        prefix = (rng.choice(pool),)
    return PathExpr(prefix, cycle)


def _atom(rng: random.Random, m: ComponentModel):
    pool = list(m.components) + list(DYNAMIC_IDS) + ["Ghost"]
    outs, ins = _endpoints(m)
    roll = rng.random()
    if roll < 0.08:
        return rng.choice((TrueAtom(), FalseAtom()))
    if roll < 0.35:
        return ComponentPresent(rng.choice(pool))
    if roll < 0.45:
        return Started("Core")
    if roll < 0.65:
        oc, op_, _ = rng.choice(outs)
        ic, ip, _ = rng.choice(ins)
        return Bound(oc, op_, ic, ip)
    if roll < 0.75:
        return Subcomponent(rng.choice(pool), rng.choice(pool))
    return ParamCmp("Core", rng.choice(("p", "q")),
                    rng.choice(("<", "<=", "=", "!=", ">=", ">")), rng.randint(0, 30))


def _var_body(rng: random.Random, domain: str, var: str, m: ComponentModel):
    if domain == "components" and rng.random() < 0.6:
        body = VarClassIs(var, rng.choice(COMPONENT_CLASSES + ("CoreClass",)))
    else:
        body = VarPresent(var)
    if rng.random() < 0.3:
        body = Or(body, _atom(rng, m))
    return body


def _cp(rng: random.Random, m: ComponentModel, depth: int = 2, n_vars: int = 0):
    if depth <= 0 or rng.random() < 0.35:
        return _atom(rng, m)
    roll = rng.random()
    if roll < 0.2:
        return Not(_cp(rng, m, depth - 1, n_vars))
    if roll < 0.7:
        ctor = rng.choice((And, Or, Implies))
        return ctor(_cp(rng, m, depth - 1, n_vars), _cp(rng, m, depth - 1, n_vars))
    var = f"v{n_vars}"
    domain = rng.choice(("components", "bindings"))
    ctor = rng.choice((ForAll, Exists))
    return ctor(var, domain, _var_body(rng, domain, var, m))


def _trace(rng: random.Random, m: ComponentModel):
    ctor = Always if rng.random() < 0.6 else Eventually
    return ctor(_cp(rng, m))


def _formula(rng: random.Random, m: ComponentModel, names: list[str], depth: int = 2):
    if depth <= 0 or rng.random() < 0.45:
        return _trace(rng, m)
    event = EventSpec(rng.choice(names + ["run"]), rng.choice(MODALITIES))
    if rng.random() < 0.35:
        return Before(event, _trace(rng, m))
    return After(event, _formula(rng, m, names, depth - 1))


def generate(rng: random.Random, count: int) -> list[SmallCase]:
    cases = []
    for i in range(count):
        m = _model(rng)
        recipes = _recipes(rng, m)
        names = sorted(recipes.recipes)
        path = _path(rng, names)
        formula = _formula(rng, m, names)
        max_steps = None
        if rng.random() < BOUNDED_SHARE:
            n_states = len(path.prefix) + len(path.cycle or ()) + (path.cycle is None)
            max_steps = rng.randint(1, 2 * n_states)
        cases.append(SmallCase(f"gen-{i}", print_model(m), print_recipes(recipes),
                               print_path(path), print_formula(formula), max_steps))
    return cases


def heavy_case(i: int) -> SmallCase:
    """Draw ``i`` of the candidate stream for oracle-heavy cases.

    Each draw is one case of the same distribution as ``generate``, from its
    own seed, so a draw is reproducible without generating those before it.
    """
    return replace(generate(random.Random(f"small-mix/heavy/{i}"), 1)[0], name=f"heavy-{i}")


def renamed(case: SmallCase, ns: str) -> SmallCase:
    """The same check with every declared component and operation name
    prefixed by ``ns``: a consistent renaming, so the verdict, the reason,
    the violating state and the witness length do not change."""
    names = set(_DECLARED.findall(case.arch)) | set(_DECLARED.findall(case.ops))
    pattern = re.compile(r"\b(" + "|".join(sorted(names)) + r")\b")

    def sub(text: str) -> str:
        return pattern.sub(lambda m: ns + m.group(1), text)

    return replace(case, name=f"{case.name}@{ns}", arch=sub(case.arch), ops=sub(case.ops),
                   rp=sub(case.rp), formula=sub(case.formula))


_Q1 = ("run (RemoveCacheHandler AddCacheHandler MemorySizeUp run "
       "AddFileServer DurationValidityUp DeleteFileServer)+")
_QP1 = ("run RemoveCacheHandler (AddCacheHandler MemorySizeUp run "
        "AddFileServer DurationValidityUp DeleteFileServer)+")
_DEVIATION = "always [RequestHandler.deviation < 100]"


def http_cases(samples: Path) -> list[SmallCase]:
    """The paper's HTTP case study, with the acceptance suite's answers.

    Base path and the q'1 re-entry hold; the q1 re-entry fails at state 2
    with a 10-step witness; the deviation counterexample is
    ``unknown(non-idempotent-cycle)`` unbounded, fails with a 50-step
    budget, and holds once the increment is replaced by a reset.
    """
    arch = (samples / "http.arch").read_text(encoding="utf-8")
    ops = (samples / "http.ops").read_text(encoding="utf-8")
    base = (samples / "server.rp").read_text(encoding="utf-8")
    cache = (samples / "cacheconnected.ftpl").read_text(encoding="utf-8").strip()
    return [
        SmallCase("http-base", arch, ops, base, cache, expect="holds"),
        SmallCase("http-qprime1", arch, ops, _QP1, cache, expect="holds"),
        SmallCase("http-q1", arch, ops, _Q1, cache, expect="fails",
                  violation_state=2, witness_len=10),
        SmallCase("http-deviation", arch, ops, "(DeviationUp)+", _DEVIATION,
                  expect="unknown", reason="non-idempotent-cycle"),
        SmallCase("http-deviation-bounded", arch, ops, "(DeviationUp)+", _DEVIATION,
                  max_steps=50, expect="fails"),
        SmallCase("http-deviation-reset", arch, ops, "(DeviationReset)+", _DEVIATION,
                  expect="holds"),
    ]


def rotation(seed: int, count: int, samples: Path) -> list[SmallCase]:
    """Generated cases with the HTTP cases interleaved at a fixed share.

    The generated cases are one frozen draw, the same for every seed; the
    seed orders them and places the HTTP cases.  The draw is frozen because
    the distribution's cost has a tail with no stable mean: about one case
    in 5,000 nests two temporal operators over the oracle's 64-round
    unfolding and takes 0.3-10 s, where the median case takes 1 ms.  Fresh
    draws per seed moved checks_per_s and the tail by 30-80% between seeds.
    The frozen draw holds no such case, so the ``HEAVY_DRAWS`` cases, drawn
    from the same distribution by rejection, are added to it: every run
    measures that class with the same two cases.
    """
    generated = generate(random.Random("small-mix"), count)
    generated += [heavy_case(i) for i in HEAVY_DRAWS]
    random.Random(f"small-mix/{seed}").shuffle(generated)
    http = http_cases(samples)
    out: list[SmallCase] = []
    for i, case in enumerate(generated):
        if i % (HTTP_EVERY - 1) == 0:
            out.append(http[(i // (HTTP_EVERY - 1)) % len(http)])
        out.append(case)
    return out
