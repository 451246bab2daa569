"""Seeded random generators for models, recipes, paths, properties, formulas.

Every generator takes an explicit random.Random so suites are reproducible.
Generated models always contain a "Core" component carrying two int
parameters; generated recipes never remove it, so parameter comparisons
and lifecycle atoms over Core stay evaluable along any generated path.
"""

from __future__ import annotations

import random

from reconfcheck import (
    AddComponent,
    Bind,
    Binding,
    BinOp,
    Component,
    ComponentModel,
    EventSpec,
    After,
    Always,
    Before,
    Eventually,
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
    build_automaton,
    parse_model,
    parse_path,
    parse_recipes,
    validate_model,
)
from reconfcheck.adl import RecipeSet
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

# ids the recipe generator may add dynamically
DYNAMIC_IDS = ("X0", "X1")


def gen_model(rng: random.Random, max_extra: int = 4) -> ComponentModel:
    comps: dict[str, Component] = {}
    comps["Core"] = Component(
        id="Core", cls="CoreClass",
        params={"p": Param("int", rng.randint(0, 20)),
                "q": Param("int", rng.randint(0, 20))},
        inputs={"cin": "T1"}, outputs={"cout": "T2"},
        state=rng.choice((STARTED, STOPPED)))
    n = rng.randint(1, max_extra)
    ids = [f"C{i}" for i in range(n)]
    for cid in ids:
        inputs = {}
        outputs = {}
        if rng.random() < 0.7:
            inputs["in1"] = rng.choice(PORT_CLASSES)
        if rng.random() < 0.3:
            inputs["in2"] = rng.choice(PORT_CLASSES)
        if rng.random() < 0.7:
            outputs["out1"] = rng.choice(PORT_CLASSES)
        params = {}
        if rng.random() < 0.2:
            params["tag"] = Param("string", rng.choice(("red", "blue")))
        if rng.random() < 0.2:
            params["on"] = Param("bool", rng.random() < 0.5)
        comps[cid] = Component(id=cid, cls=rng.choice(COMPONENT_CLASSES),
                               params=params, inputs=inputs, outputs=outputs,
                               state=rng.choice((STARTED, STOPPED)))
    # random containment forest over the C* components (parents lose params:
    # composites cannot carry any)
    for i, cid in enumerate(ids):
        if i > 0 and rng.random() < 0.3:
            parent = ids[rng.randrange(i)]
            pc = comps[parent]
            comps[parent] = Component(id=pc.id, cls=pc.cls, params={},
                                      inputs=pc.inputs, outputs=pc.outputs,
                                      contains=pc.contains | {cid}, state=pc.state)
    bindings = set()
    taken_inputs = set()
    out_eps = [(cid, port, cls) for cid, c in comps.items()
               for port, cls in c.outputs.items()]
    in_eps = [(cid, port, cls) for cid, c in comps.items()
              for port, cls in c.inputs.items()]
    rng.shuffle(out_eps)
    for oc, op_, ocls in out_eps:
        targets = [(ic, ip) for ic, ip, icls in in_eps
                   if icls == ocls and (ic, ip) not in taken_inputs]
        if targets and rng.random() < 0.6:
            ic, ip = rng.choice(targets)
            bindings.add(Binding(oc, op_, ic, ip))
            taken_inputs.add((ic, ip))
    m = ComponentModel(name="G", components=comps, bindings=frozenset(bindings))
    assert validate_model(m) == [], validate_model(m)
    return m


def _endpoint_universe(m: ComponentModel):
    outs = [(cid, p, cls) for cid, c in m.components.items()
            for p, cls in c.outputs.items()]
    ins = [(cid, p, cls) for cid, c in m.components.items()
           for p, cls in c.inputs.items()]
    # dynamically addable components contribute their template ports too
    outs.append(("X0", "xout", "T1"))
    ins.append(("X1", "xin", "T1"))
    return outs, ins


def _gen_step(rng: random.Random, m: ComponentModel):
    outs, ins = _endpoint_universe(m)
    removable = [cid for cid in m.components if cid != "Core"] + list(DYNAMIC_IDS)
    kind = rng.choice(("add", "remove", "bind", "unbind", "set", "set", "flip"))
    if kind == "add":
        cid = rng.choice(DYNAMIC_IDS)
        if cid == "X0":
            template = Component(id="X0", cls="FileStore", outputs={"xout": "T1"})
        else:
            template = Component(id="X1", cls="FileStore", inputs={"xin": "T1"})
        return AddComponent(template)
    if kind == "remove":
        return RemoveComponent(rng.choice(removable))
    if kind in ("bind", "unbind"):
        oc, op_, ocls = rng.choice(outs)
        compatible = [(ic, ip) for ic, ip, icls in ins if icls == ocls]
        if not compatible:
            return Stop(rng.choice(list(m.components)))
        ic, ip = rng.choice(compatible)
        binding = Binding(oc, op_, ic, ip)
        return Bind(binding) if kind == "bind" else Unbind(binding)
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


def gen_recipes(rng: random.Random, m: ComponentModel) -> RecipeSet:
    recipes = {}
    for i in range(rng.randint(1, 4)):
        steps = tuple(_gen_step(rng, m) for _ in range(rng.randint(1, 3)))
        recipes[f"Op{i}"] = steps
    return RecipeSet(recipes)


def gen_path(rng: random.Random, names: list[str]) -> PathExpr:
    pool = names + ["run"]
    prefix = tuple(rng.choice(pool) for _ in range(rng.randint(0, 3)))
    cycle = None
    if rng.random() < 0.75:
        cycle = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
    if cycle is None and not prefix:
        prefix = (rng.choice(pool),)
    return PathExpr(prefix, cycle)


def _component_pool(m: ComponentModel) -> list[str]:
    return list(m.components) + list(DYNAMIC_IDS) + ["Ghost"]


def gen_cp(rng: random.Random, m: ComponentModel, depth: int = 2,
           bound_vars: tuple = ()):
    if depth <= 0 or rng.random() < 0.35:
        return _gen_cp_atom(rng, m, bound_vars)
    roll = rng.random()
    if roll < 0.2:
        return Not(gen_cp(rng, m, depth - 1, bound_vars))
    if roll < 0.7:
        ctor = rng.choice((And, Or, Implies))
        return ctor(gen_cp(rng, m, depth - 1, bound_vars),
                    gen_cp(rng, m, depth - 1, bound_vars))
    var = f"v{len(bound_vars)}"
    domain = rng.choice(("components", "bindings"))
    ctor = rng.choice((ForAll, Exists))
    return ctor(var, domain, _gen_var_body(rng, domain, var, m, bound_vars))


def _gen_var_body(rng, domain, var, m, bound_vars):
    if domain == "components" and rng.random() < 0.6:
        cls = rng.choice(COMPONENT_CLASSES + ("CoreClass",))
        body = VarClassIs(var, cls)
    else:
        body = VarPresent(var)
    if rng.random() < 0.3:
        body = Or(body, _gen_cp_atom(rng, m, bound_vars))
    return body


def _gen_cp_atom(rng: random.Random, m: ComponentModel, bound_vars: tuple):
    pool = _component_pool(m)
    outs, ins = _endpoint_universe(m)
    roll = rng.random()
    if roll < 0.08:
        return rng.choice((TrueAtom(), FalseAtom()))
    if roll < 0.35:
        return ComponentPresent(rng.choice(pool))
    if roll < 0.45:
        return Started("Core")  # only Core is guaranteed present
    if roll < 0.65:
        oc, op_, _ = rng.choice(outs)
        ic, ip, _ = rng.choice(ins)
        return Bound(oc, op_, ic, ip)
    if roll < 0.75:
        return Subcomponent(rng.choice(pool), rng.choice(pool))
    target = rng.choice(("p", "q"))
    relop = rng.choice(("<", "<=", "=", "!=", ">=", ">"))
    return ParamCmp("Core", target, relop, rng.randint(0, 30))


def gen_ill_formed_cp(rng: random.Random, m: ComponentModel):
    """A generated property with an atom that cannot be evaluated inside it:
    an unknown identifier, an ill-sorted comparison, an unbound or mistyped
    variable, or an unknown quantifier domain.  Whether evaluation reaches
    that atom depends on short-circuiting."""
    bad = rng.choice((
        Started("Ghost"),
        ParamCmp("Ghost", "p", "<", 1),
        ParamCmp("Core", "nope", "=", 1),
        ParamCmp("Core", "p", "=", "red"),
        VarClassIs("free", "Alpha"),
        VarPresent("free"),
        Exists("b", "bindings", VarClassIs("b", "Alpha")),
        ForAll("v", "ports", TrueAtom()),
    ))
    other = gen_cp(rng, m)
    roll = rng.random()
    if roll < 0.2:
        return Not(bad)
    if roll < 0.7:
        ctor = rng.choice((And, Or, Implies))
        return ctor(other, bad) if rng.random() < 0.5 else ctor(bad, other)
    ctor = rng.choice((ForAll, Exists))
    return ctor("w", rng.choice(("components", "bindings")), Or(other, bad))


def gen_trace(rng: random.Random, m: ComponentModel):
    ctor = Always if rng.random() < 0.6 else Eventually
    return ctor(gen_cp(rng, m))


def gen_formula(rng: random.Random, m: ComponentModel, names: list[str],
                depth: int = 2):
    if depth <= 0 or rng.random() < 0.45:
        return gen_trace(rng, m)
    event = EventSpec(rng.choice(names + ["run"]), rng.choice(MODALITIES))
    if rng.random() < 0.35:
        return Before(event, gen_trace(rng, m))
    return After(event, gen_formula(rng, m, names, depth - 1))


def gen_case(seed: int):
    """(formula, path automaton, model, operation table) of one seed."""
    rng = random.Random(seed)
    model = gen_model(rng)
    recipes = gen_recipes(rng, model)
    names = sorted(recipes.recipes)
    a = build_automaton(gen_path(rng, names))
    return gen_formula(rng, model, names), a, model, recipes.operation_table()


def _with_ill_formed_leaves(rng: random.Random, f, m: ComponentModel):
    """``f`` with every property leaf replaced by a :func:`gen_ill_formed_cp` draw."""
    if isinstance(f, After):
        return After(f.event, _with_ill_formed_leaves(rng, f.inner, m))
    if isinstance(f, Before):
        return Before(f.event, type(f.trace)(gen_ill_formed_cp(rng, m)))
    return type(f)(gen_ill_formed_cp(rng, m))


def gen_ill_formed_case(seed: int):
    """:func:`gen_case` of one seed, its formula's properties drawn ill-formed
    by a generator of their own, so the path, model and operations are kept."""
    f, a, c0, ops = gen_case(seed)
    return _with_ill_formed_leaves(random.Random(f"ill-formed {seed}"), f, c0), a, c0, ops


def scaled_holds_lasso(n: int, k: int, bump: bool):
    """A lasso in the shape of the benchmark's ``holds`` lassos: a ``Hub``
    with one ``TX`` input per cycle slot and an int parameter ``level``, and
    ``n`` workers chained by ``TW`` bindings, every tenth of them stopped.
    The path is ``run (AddX0 run RmX0 ... AddX<k-1> run RmX<k-1>)+``; with
    ``bump``, ``Bump`` (``level`` + 1) sits after the ``k // 2``-th triplet,
    so only the erased gate admits the cycle."""
    hub = "component Hub { class Hub param level : int = 0 input head : TW " + \
        " ".join(f"input in{j} : TX" for j in range(k)) + " }"
    workers = " ".join(f"component W{i} {{ class Worker input i : TW output o : TW "
                       f"state {'stopped' if i % 10 == 0 else 'started'} }}" for i in range(n))
    binds = " ".join(f"bind W{i}.o -> W{i + 1}.i" for i in range(n - 1))
    model = parse_model(f"model Scaled {{ {hub} {workers} {binds} bind W{n - 1}.o -> Hub.head }}")
    recipes = parse_recipes("op Bump { set Hub.level := param(Hub.level) + 1 } " + " ".join(
        f"op AddX{j} {{ add component X{j} {{ class Extra output feed : TX }} "
        f"bind X{j}.feed -> Hub.in{j} }} op RmX{j} {{ remove component X{j} }}"
        for j in range(k)))
    cycle = [label for j in range(k) for label in (f"AddX{j}", "run", f"RmX{j}")]
    if bump:
        cycle.insert(3 * (k // 2), "Bump")
    a = build_automaton(parse_path(f"run ({' '.join(cycle)})+"))
    return a, model, recipes.operation_table()


def binding_lasso_texts(p: int, k: int) -> tuple[str, str, str]:
    """The binding lasso B(p, k) as .arch, .ops and path text: a component
    ``A`` with outputs ``o0`` to ``o<k>`` and a component ``B`` with inputs
    ``i0`` to ``i<k>``; ``B<j>`` binds ``A.o<j> -> B.i<j>`` and ``U<j>``
    unbinds it.  The path is ``B0 U0`` repeated ``p // 2`` times, then
    ``(B1 U1 ... B<k> U<k>)+``, so the cycle's entry is the initial
    configuration, and its positions differ from it, and from each other,
    in one binding at most."""
    model = "model M { component A { class KA " + \
        " ".join(f"output o{j} : T" for j in range(k + 1)) + " } component B { class KB " + \
        " ".join(f"input i{j} : T" for j in range(k + 1)) + " } }"
    ops = "\n".join(f"op B{j} {{ bind A.o{j} -> B.i{j} }} op U{j} {{ unbind A.o{j} -> B.i{j} }}"
                    for j in range(k + 1))
    cycle = " ".join(f"B{j} U{j}" for j in range(1, k + 1))
    return model, ops, "B0 U0 " * (p // 2) + f"({cycle})+"


def binding_lasso(p: int, k: int):
    """B(p, k) (:func:`binding_lasso_texts`) as an automaton, a model and
    its operations."""
    model, ops, path = binding_lasso_texts(p, k)
    return build_automaton(parse_path(path)), parse_model(model), \
        parse_recipes(ops).operation_table()
