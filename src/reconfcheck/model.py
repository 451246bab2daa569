"""Component models and configuration properties.

A component model is one snapshot of an architecture: components with
parameters and typed ports, a subcomponent forest, a set of port bindings
and a set of delegation links.  Models are immutable values; every
transformation produces a new model.  Configuration properties are
first-order formulas evaluated against a single model.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Optional, Union

STARTED = "started"
STOPPED = "stopped"

PARAM_CLASSES = ("int", "string", "bool")

_PY_TYPES = {"int": int, "string": str, "bool": bool}


@dataclass(frozen=True)
class Param:
    """A typed parameter value.  ``value`` is None only in erased models."""

    cls: str
    value: Union[int, str, bool, None]


@dataclass(frozen=True)
class Component:
    id: str
    cls: str
    params: dict[str, Param] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)
    contains: frozenset[str] = frozenset()
    state: str = STARTED

    @property
    def is_composite(self) -> bool:
        return bool(self.contains)


@dataclass(frozen=True)
class Binding:
    """One binding: an output port coupled to an input port of equal class."""

    out_component: str
    out_port: str
    in_component: str
    in_port: str


@dataclass(frozen=True)
class Delegation:
    """Link between a composite's port and the same-direction port of a child."""

    composite: str
    composite_port: str
    inner: str
    inner_port: str


@dataclass(frozen=True)
class ComponentModel:
    name: str
    components: dict[str, Component] = field(default_factory=dict)
    bindings: frozenset[Binding] = frozenset()
    delegations: frozenset[Delegation] = frozenset()


def erase_param_values(m: ComponentModel) -> ComponentModel:
    """Copy of ``m`` with every parameter value blanked (class kept).

    Used to compare models while ignoring parameter-updating operations.
    Components without parameters are shared with ``m``, so comparing two
    erased models of one path mostly compares components by identity.
    """
    comps = {
        cid: replace(c, params={p: Param(pv.cls, None) for p, pv in c.params.items()})
        if c.params else c
        for cid, c in m.components.items()
    }
    return replace(m, components=comps)


def parent_of(m: ComponentModel, cid: str) -> Optional[str]:
    for pid, c in m.components.items():
        if cid in c.contains:
            return pid
    return None


def component_type_errors(cid: str, c: Component) -> Iterator[str]:
    """The typing rules of one component: disjoint parameter, input and
    output names; composites without parameters; each parameter value of
    its class (or None, in erased models)."""
    names = [set(c.params), set(c.inputs), set(c.outputs)]
    for i, j, what in ((0, 1, "param/input"), (0, 2, "param/output"), (1, 2, "input/output")):
        shared = names[i] & names[j]
        if shared:
            yield f"component '{cid}' reuses {what} names {sorted(shared)}"
    for pname, pv in c.params.items():
        if pv.cls not in PARAM_CLASSES:
            yield f"component '{cid}' param '{pname}' has unknown class '{pv.cls}'"
        elif pv.value is not None and type(pv.value) is not _PY_TYPES[pv.cls]:
            yield f"component '{cid}' param '{pname}' value does not match class {pv.cls}"
    if c.contains and c.params:
        yield f"composite '{cid}' has parameters"


def validate_model(m: ComponentModel) -> list[str]:
    """Check every structural invariant; return one message per violation.

    An empty list means the model is well-formed.  Violations are data, not
    errors: callers decide whether to reject.
    """
    errs: list[str] = []
    comps = m.components

    for cid, c in comps.items():
        if c.id != cid:
            errs.append(f"component keyed '{cid}' carries id '{c.id}'")
        if c.state not in (STARTED, STOPPED):
            errs.append(f"component '{cid}' has unknown lifecycle state '{c.state}'")
        errs.extend(component_type_errors(cid, c))
        for child in c.contains:
            if child not in comps:
                errs.append(f"component '{cid}' contains unknown component '{child}'")

    # each component has at most one parent, and the parent chain is acyclic
    parent: dict[str, str] = {}
    for pid, c in comps.items():
        for child in c.contains:
            if child in parent:
                errs.append(f"component '{child}' contained by both '{parent[child]}' and '{pid}'")
            else:
                parent[child] = pid
    for cid in comps:
        seen = set()
        cur: Optional[str] = cid
        while cur is not None and cur in parent:
            if cur in seen:
                errs.append(f"subcomponent cycle through '{cur}'")
                break
            seen.add(cur)
            cur = parent.get(cur)

    in_endpoints: set[tuple[str, str]] = set()
    for b in m.bindings:
        src = comps.get(b.out_component)
        dst = comps.get(b.in_component)
        if src is None:
            errs.append(f"binding from unknown component '{b.out_component}'")
        elif b.out_port not in src.outputs:
            errs.append(f"binding from '{b.out_component}' missing output port '{b.out_port}'")
        if dst is None:
            errs.append(f"binding to unknown component '{b.in_component}'")
        elif b.in_port not in dst.inputs:
            errs.append(f"binding to '{b.in_component}' missing input port '{b.in_port}'")
        if src is not None and dst is not None and \
                b.out_port in src.outputs and b.in_port in dst.inputs and \
                src.outputs[b.out_port] != dst.inputs[b.in_port]:
            errs.append(
                f"binding {b.out_component}.{b.out_port} -> {b.in_component}.{b.in_port} "
                f"couples ports of different classes")
        ep = (b.in_component, b.in_port)
        if ep in in_endpoints:
            errs.append(f"input endpoint {b.in_component}.{b.in_port} bound more than once")
        in_endpoints.add(ep)

    for d in m.delegations:
        outer = comps.get(d.composite)
        inner = comps.get(d.inner)
        if outer is None or inner is None:
            errs.append(f"delegation {d.composite}.{d.composite_port} -> {d.inner}.{d.inner_port} "
                        f"names unknown components")
            continue
        if d.inner not in outer.contains:
            errs.append(f"delegation target '{d.inner}' is not a subcomponent of '{d.composite}'")
        o_in, o_out = d.composite_port in outer.inputs, d.composite_port in outer.outputs
        i_in, i_out = d.inner_port in inner.inputs, d.inner_port in inner.outputs
        if not (o_in or o_out):
            errs.append(f"delegation source port '{d.composite_port}' missing on '{d.composite}'")
        elif not (i_in or i_out):
            errs.append(f"delegation inner port '{d.inner_port}' missing on '{d.inner}'")
        elif (o_in and not i_in) or (o_out and not i_out):
            errs.append(f"delegation {d.composite}.{d.composite_port} -> {d.inner}.{d.inner_port} "
                        f"mixes port directions")
        else:
            outer_cls = outer.inputs.get(d.composite_port, outer.outputs.get(d.composite_port))
            inner_cls = inner.inputs.get(d.inner_port, inner.outputs.get(d.inner_port))
            if outer_cls != inner_cls:
                errs.append(f"delegation {d.composite}.{d.composite_port} -> {d.inner}.{d.inner_port} "
                            f"couples ports of different classes")

    return errs


# --- configuration properties ------------------------------------------------

class CpEvalError(Exception):
    """A property referenced something the model cannot interpret.

    Raised for unknown identifiers in attribute atoms (parameter
    comparisons, lifecycle and class queries) and for ill-sorted
    comparisons.  Signals an ill-formed property, not falsity.
    """


@dataclass(frozen=True)
class TrueAtom:
    pass


@dataclass(frozen=True)
class FalseAtom:
    pass


@dataclass(frozen=True)
class ComponentPresent:
    id: str


@dataclass(frozen=True)
class Started:
    id: str


@dataclass(frozen=True)
class Bound:
    out_component: str
    out_port: str
    in_component: str
    in_port: str


@dataclass(frozen=True)
class Subcomponent:
    child: str
    parent: str


@dataclass(frozen=True)
class ParamCmp:
    component: str
    param: str
    relop: str  # one of < <= = != >= >
    literal: Union[int, str, bool]


@dataclass(frozen=True)
class Not:
    inner: "ConfigProperty"


@dataclass(frozen=True)
class And:
    left: "ConfigProperty"
    right: "ConfigProperty"


@dataclass(frozen=True)
class Or:
    left: "ConfigProperty"
    right: "ConfigProperty"


@dataclass(frozen=True)
class Implies:
    left: "ConfigProperty"
    right: "ConfigProperty"


@dataclass(frozen=True)
class ForAll:
    var: str
    domain: str  # "components" | "bindings"
    body: "ConfigProperty"


@dataclass(frozen=True)
class Exists:
    var: str
    domain: str
    body: "ConfigProperty"


@dataclass(frozen=True)
class VarClassIs:
    var: str
    cls: str


@dataclass(frozen=True)
class VarPresent:
    var: str


ConfigProperty = Union[
    TrueAtom, FalseAtom, ComponentPresent, Started, Bound, Subcomponent, ParamCmp,
    Not, And, Or, Implies, ForAll, Exists, VarClassIs, VarPresent,
]

_RELOPS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

QUANTIFIER_DOMAINS = ("components", "bindings")

# var environment entries: ("component", id) or ("binding", Binding)
_Env = Mapping[str, tuple]


def _domain_values(m: ComponentModel, domain: str) -> Iterator[tuple]:
    if domain == "components":
        for cid in sorted(m.components):
            yield ("component", cid)
    elif domain == "bindings":
        for b in sorted(m.bindings, key=lambda b: (b.out_component, b.out_port,
                                                   b.in_component, b.in_port)):
            yield ("binding", b)
    else:
        raise CpEvalError(f"unknown quantifier domain '{domain}'")


def eval_cp(cp: ConfigProperty, m: ComponentModel, env: Optional[_Env] = None) -> bool:
    """Truth value of ``cp`` on ``m`` under standard first-order semantics.

    Membership atoms (component / bound / subcomponent) are false when the
    named entities are absent.  Attribute atoms raise :class:`CpEvalError`
    when their subject does not exist, so a property written against the
    wrong vocabulary fails loudly instead of silently evaluating false.
    """
    env = env or {}
    if isinstance(cp, TrueAtom):
        return True
    if isinstance(cp, FalseAtom):
        return False
    if isinstance(cp, ComponentPresent):
        return cp.id in m.components
    if isinstance(cp, Started):
        c = m.components.get(cp.id)
        if c is None:
            raise CpEvalError(f"started(): unknown component '{cp.id}'")
        return c.state == STARTED
    if isinstance(cp, Bound):
        return Binding(cp.out_component, cp.out_port, cp.in_component, cp.in_port) in m.bindings
    if isinstance(cp, Subcomponent):
        parent = m.components.get(cp.parent)
        return parent is not None and cp.child in parent.contains
    if isinstance(cp, ParamCmp):
        return _eval_param_cmp(cp, m)
    if isinstance(cp, Not):
        return not eval_cp(cp.inner, m, env)
    if isinstance(cp, And):
        return eval_cp(cp.left, m, env) and eval_cp(cp.right, m, env)
    if isinstance(cp, Or):
        return eval_cp(cp.left, m, env) or eval_cp(cp.right, m, env)
    if isinstance(cp, Implies):
        return (not eval_cp(cp.left, m, env)) or eval_cp(cp.right, m, env)
    if isinstance(cp, ForAll):
        return all(eval_cp(cp.body, m, {**env, cp.var: v})
                   for v in _domain_values(m, cp.domain))
    if isinstance(cp, Exists):
        return any(eval_cp(cp.body, m, {**env, cp.var: v})
                   for v in _domain_values(m, cp.domain))
    if isinstance(cp, VarClassIs):
        kind, val = _lookup_var(env, cp.var)
        if kind != "component":
            raise CpEvalError(f"class({cp.var}): variable is not component-typed")
        c = m.components.get(val)
        if c is None:
            raise CpEvalError(f"class({cp.var}): component '{val}' not in model")
        return c.cls == cp.cls
    if isinstance(cp, VarPresent):
        kind, val = _lookup_var(env, cp.var)
        if kind == "component":
            return val in m.components
        return val in m.bindings
    raise CpEvalError(f"unknown property node {cp!r}")


# a compiled property: its truth value on a model under a variable environment
CompiledCp = Callable[[ComponentModel, _Env], bool]


def compile_cp(cp: ConfigProperty) -> CompiledCp:
    """Closure ``fn`` with ``fn(m, env) == eval_cp(cp, m, env)``.

    The dispatch on node types happens once, here, instead of on every
    evaluation.  Iteration order, short-circuiting and every
    :class:`CpEvalError` message are those of :func:`eval_cp`, and errors
    are raised when evaluating, never when compiling, so an ill-formed
    subproperty that short-circuiting skips stays harmless.
    """
    if isinstance(cp, TrueAtom):
        return lambda m, env: True
    if isinstance(cp, FalseAtom):
        return lambda m, env: False
    if isinstance(cp, ComponentPresent):
        cid = cp.id
        return lambda m, env: cid in m.components
    if isinstance(cp, Started):
        return _compile_started(cp.id)
    if isinstance(cp, Bound):
        b = Binding(cp.out_component, cp.out_port, cp.in_component, cp.in_port)
        return lambda m, env: b in m.bindings
    if isinstance(cp, Subcomponent):
        return _compile_subcomponent(cp.child, cp.parent)
    if isinstance(cp, ParamCmp):
        return lambda m, env: _eval_param_cmp(cp, m)
    if isinstance(cp, Not):
        inner = compile_cp(cp.inner)
        return lambda m, env: not inner(m, env)
    if isinstance(cp, And):
        left, right = compile_cp(cp.left), compile_cp(cp.right)
        return lambda m, env: left(m, env) and right(m, env)
    if isinstance(cp, Or):
        left, right = compile_cp(cp.left), compile_cp(cp.right)
        return lambda m, env: left(m, env) or right(m, env)
    if isinstance(cp, Implies):
        left, right = compile_cp(cp.left), compile_cp(cp.right)
        return lambda m, env: (not left(m, env)) or right(m, env)
    if isinstance(cp, (ForAll, Exists)):
        return _compile_quantifier(cp.var, cp.domain, compile_cp(cp.body),
                                   universal=isinstance(cp, ForAll))
    if isinstance(cp, VarClassIs):
        return _compile_var_class_is(cp.var, cp.cls)
    if isinstance(cp, VarPresent):
        return _compile_var_present(cp.var)
    return _compile_raise(f"unknown property node {cp!r}")


def _compile_started(cid: str) -> CompiledCp:
    def started(m: ComponentModel, env: _Env) -> bool:
        c = m.components.get(cid)
        if c is None:
            raise CpEvalError(f"started(): unknown component '{cid}'")
        return c.state == STARTED
    return started


def _compile_subcomponent(child: str, parent_id: str) -> CompiledCp:
    def subcomponent(m: ComponentModel, env: _Env) -> bool:
        parent = m.components.get(parent_id)
        return parent is not None and child in parent.contains
    return subcomponent


def _compile_quantifier(var: str, domain: str, body: CompiledCp,
                        universal: bool) -> CompiledCp:
    # one scope per evaluation, rebound per value: no compiled body keeps env
    def forall(m: ComponentModel, env: _Env) -> bool:
        scope = dict(env)
        for v in _domain_values(m, domain):
            scope[var] = v
            if not body(m, scope):
                return False
        return True

    def exists(m: ComponentModel, env: _Env) -> bool:
        scope = dict(env)
        for v in _domain_values(m, domain):
            scope[var] = v
            if body(m, scope):
                return True
        return False

    return forall if universal else exists


def _compile_var_class_is(var: str, cls: str) -> CompiledCp:
    def var_class_is(m: ComponentModel, env: _Env) -> bool:
        kind, val = _lookup_var(env, var)
        if kind != "component":
            raise CpEvalError(f"class({var}): variable is not component-typed")
        c = m.components.get(val)
        if c is None:
            raise CpEvalError(f"class({var}): component '{val}' not in model")
        return c.cls == cls
    return var_class_is


def _compile_var_present(var: str) -> CompiledCp:
    def var_present(m: ComponentModel, env: _Env) -> bool:
        kind, val = _lookup_var(env, var)
        if kind == "component":
            return val in m.components
        return val in m.bindings
    return var_present


def _compile_raise(message: str) -> CompiledCp:
    def ill_formed(m: ComponentModel, env: _Env) -> bool:
        raise CpEvalError(message)
    return ill_formed


def _lookup_var(env: _Env, var: str) -> tuple:
    try:
        return env[var]
    except KeyError:
        raise CpEvalError(f"unbound variable '{var}'") from None


def _eval_param_cmp(cp: ParamCmp, m: ComponentModel) -> bool:
    c = m.components.get(cp.component)
    if c is None:
        raise CpEvalError(f"parameter comparison: unknown component '{cp.component}'")
    pv = c.params.get(cp.param)
    if pv is None:
        raise CpEvalError(f"component '{cp.component}' has no parameter '{cp.param}'")
    if pv.value is None:
        raise CpEvalError(f"parameter '{cp.component}.{cp.param}' has no value")
    if type(cp.literal) is not _PY_TYPES[pv.cls]:
        raise CpEvalError(
            f"ill-sorted comparison: '{cp.component}.{cp.param}' is {pv.cls}")
    if cp.relop in ("<", "<=", ">=", ">") and pv.cls != "int":
        raise CpEvalError(f"ordering comparison on non-int parameter "
                          f"'{cp.component}.{cp.param}'")
    return _RELOPS[cp.relop](pv.value, cp.literal)


def cp_mentions_params(cp: ConfigProperty) -> bool:
    """True when the property reads any parameter value."""
    if isinstance(cp, ParamCmp):
        return True
    if isinstance(cp, Not):
        return cp_mentions_params(cp.inner)
    if isinstance(cp, (And, Or, Implies)):
        return cp_mentions_params(cp.left) or cp_mentions_params(cp.right)
    if isinstance(cp, (ForAll, Exists)):
        return cp_mentions_params(cp.body)
    return False
