"""Component models and configuration properties.

A component model is one snapshot of an architecture: components with
parameters and typed ports, a subcomponent forest, a set of port bindings
and a set of delegation links.  Models are immutable values; every
transformation produces a new model.  Configuration properties are
first-order formulas evaluated against a single model.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, insort
from collections import defaultdict
from functools import partial
from typing import Callable, Collection, Iterable, Iterator, Mapping, Optional, Union

from .record import record

STARTED = "started"
STOPPED = "stopped"

PARAM_CLASSES = ("int", "string", "bool")

_PY_TYPES = {"int": int, "string": str, "bool": bool}

_value = operator.attrgetter("value")


@record
class Param:
    """A typed parameter value.  ``value`` is None only in erased models."""

    cls: str
    value: Union[int, str, bool, None]


@record
class Component:
    id: str
    cls: str
    params: dict[str, Param] = {}
    inputs: dict[str, str] = {}
    outputs: dict[str, str] = {}
    contains: frozenset[str] = frozenset()
    state: str = STARTED

    def __hash__(self) -> int:
        """Hash of the id, lifecycle state and set of parameter values.

        Equal components hash equal, since ``==`` compares every field; what
        is left out (class, ports, children, which value has which name) only
        makes unequal components more likely to collide, which callers settle
        with ``==``.  It is computed on each call: a component is hashed
        about once per model that adds or drops it, so a cache kept on it
        would cost every construction more than it saves.
        """
        return hash((self.id, self.state, frozenset(map(_value, self.params.values()))))

    def evolve(self, params: Optional[dict[str, Param]] = None,
               contains: Optional[frozenset[str]] = None,
               state: Optional[str] = None) -> Component:
        """A copy with the fields operations change replaced."""
        return Component(self.id, self.cls, self.params if params is None else params,
                         self.inputs, self.outputs,
                         self.contains if contains is None else contains,
                         self.state if state is None else state)


@record
class Binding:
    """One binding: an output port coupled to an input port of equal class."""

    out_component: str
    out_port: str
    in_component: str
    in_port: str


@record
class Delegation:
    """Link between a composite's port and the same-direction port of a child."""

    composite: str
    composite_port: str
    inner: str
    inner_port: str


@record
class ComponentModel:
    """A configuration, and its own dictionary key: equal models hash equal.
    The hash is that of :func:`component_sum`, which the operations keep up to
    date, with the link sets, whose hashes frozensets keep; the name, which no
    operation changes, is left out."""

    name: str
    components: dict[str, Component] = {}
    bindings: frozenset[Binding] = frozenset()
    delegations: frozenset[Delegation] = frozenset()

    # kept, not compared or printed, and never copied: the sum of
    # component_sum, and the ModelIndex of the newest model of a run
    __slots__ = ("_component_sum", "_index", "__weakref__")

    def __hash__(self) -> int:
        return hash((component_sum(self), self.bindings, self.delegations))


def link(links: dict[str, tuple[Binding, ...]], b: Binding) -> None:
    """Add binding ``b`` to the ``links`` part of a :class:`ModelIndex`."""
    out_component, in_component = b.out_component, b.in_component
    links[out_component] = links.get(out_component, ()) + (b,)
    if in_component != out_component:
        links[in_component] = links.get(in_component, ()) + (b,)


def unlink(links: dict[str, tuple[Binding, ...]], cid: str, b: Binding) -> None:
    """Drop binding ``b`` from the links of component ``cid``."""
    bs = links[cid]
    if len(bs) == 1:
        del links[cid]
    else:
        i = bs.index(b)
        links[cid] = bs[:i] + bs[i + 1:]


def _links(m: ComponentModel) -> dict[str, tuple[Binding, ...]]:
    links: dict[str, tuple[Binding, ...]] = {}
    for b in m.bindings:
        link(links, b)
    return links


def _classes(m: ComponentModel) -> dict[str, list[str]]:
    classes: defaultdict[str, list[str]] = defaultdict(list)
    for cid, c in m.components.items():
        classes[c.cls].append(cid)
    for ids in classes.values():
        ids.sort()
    return dict(classes)


# how each part of a ModelIndex is built from its model
_BUILDERS: dict[str, Callable[[ComponentModel], object]] = {
    "stopped": lambda m: {cid for cid, c in m.components.items() if c.state != STARTED},
    "links": _links,
    "parents": lambda m: {cid for cid, c in m.components.items() if c.contains},
    "holders": lambda m: {cid for cid, c in m.components.items() if c.params},
    "classes": _classes,
}


class ModelIndex:
    """What operations look up in a model, so that each costs what it changes.

    Five parts, each None until first asked for (:meth:`part`): ``stopped``,
    the ids of the components that are not started; ``links``, the bindings
    of each component that has any; ``parents``, the ids of the components
    that have children; ``holders``, the ids of the components that have
    parameters; and ``classes``, the ids of each class's components, in
    increasing order.

    Only the newest model of a run holds its index.  An operation takes its
    input's index, or a new one when the input holds none, builds the parts
    it looks up, and hands the index with its change to :func:`derive_model`,
    which updates every built part and moves the index to its output.  So a
    run keeps one index, built part by part once, and the models it moved
    past hold none.  Readers that derive no model (erasure, quantifiers)
    use the index of a model that holds one, and scan any other.

    ``log``, None unless a reader sets a list there, gets one
    :data:`Derived` for each change :func:`derive_model` makes with the
    index: a check's run sets one for each step it takes, and keeps it as
    the step's record, and ``simulate`` reads one step by step (see
    :func:`composed`).
    """

    stopped = links = parents = holders = classes = log = None

    def part(self, name: str, m: ComponentModel):
        """Part ``name`` of this index of ``m``, built from ``m`` if it is not yet."""
        built = getattr(self, name)
        if built is None:
            built = _BUILDERS[name](m)
            setattr(self, name, built)
        return built

    def add(self, c: Component) -> None:
        """Component ``c``, linked to nothing, joined the model under its id."""
        cid = c.id
        if self.stopped is not None and c.state != STARTED:
            self.stopped.add(cid)
        if self.parents is not None and c.contains:
            self.parents.add(cid)
        if self.holders is not None and c.params:
            self.holders.add(cid)
        if self.classes is not None:
            insort(self.classes.setdefault(c.cls, []), cid)

    def remove(self, c: Component) -> None:
        """Component ``c`` left the model, with its links; the other ends of
        its bindings are unlinked as the bindings are cut."""
        cid = c.id
        for ids in (self.stopped, self.parents, self.holders):
            if ids is not None:
                ids.discard(cid)
        if self.links is not None:
            self.links.pop(cid, None)
        if self.classes is not None:
            ids = self.classes[c.cls]
            if len(ids) == 1:
                del self.classes[c.cls]
            else:
                del ids[bisect_left(ids, cid)]

    def replace(self, old: Component, new: Component) -> None:
        """Component ``old`` became ``new`` under its id.  No operation changes
        an id, a class or the names of its parameters in place, and only a
        remove changes children, taking the removed one out of its parent:
        so ``stopped`` moves where the state did, and ``parents`` loses a
        parent whose last child went."""
        cid = new.id
        if old.state != new.state and self.stopped is not None:
            if new.state == STARTED:
                self.stopped.discard(cid)
            else:
                self.stopped.add(cid)
        if old.contains and not new.contains and self.parents is not None:
            self.parents.discard(cid)


def model_index(m: ComponentModel) -> ModelIndex:
    """The index ``m`` holds, or a new one, which only a model derived from
    ``m`` will hold."""
    index = m._index
    return ModelIndex() if index is None else index


def hold_index(m: ComponentModel) -> None:
    """Give ``m`` an index of its own if it holds none: the start of a run."""
    if m._index is None:
        object.__setattr__(m, "_index", ModelIndex())


_SUM_MASK = (1 << 64) - 1


def component_sum(m: ComponentModel) -> int:
    """Sum, modulo 2^64, of the hashes of ``m``'s components.

    A multiset hash that can be updated element by element (Clarke et al.,
    ASIACRYPT 2003): :func:`derive_model` keeps it up to date through the
    operations, and any other model computes it here, once, on first use.
    """
    s = m._component_sum
    if s is None:
        s = sum(map(hash, m.components.values())) & _SUM_MASK
        object.__setattr__(m, "_component_sum", s)
    return s


def derive_model(m: ComponentModel, put: Collection[Component] = (),
                 taken: Collection[str] = (), cut: Collection[Binding] = (),
                 made: Collection[Binding] = (), uncoupled: Collection[Delegation] = (),
                 index: Optional[ModelIndex] = None) -> ComponentModel:
    """``m`` changed as an operation states: the one place a model changes.

    ``put`` components replace the ones ``m`` holds under their ids, in
    place, or join at the end; ``taken`` ids leave, as do the ``cut``
    bindings and the ``uncoupled`` delegations, and the ``made`` bindings
    join.  What the change leaves alone is shared with ``m``.  The component
    sum is derived from ``m``'s, which is forced, so a run carries one sum
    from its first model on.  ``index``, the one the operation took from
    ``m``, has every built part updated and moves to the new model; its
    log, if any, gets the change.  A component put in place of another
    changes what an operation can change (:meth:`ModelIndex.replace`).
    """
    comps = m.components
    s = component_sum(m)
    if index is not None and index.log is not None:
        # as tuples: a collection the caller passes may be one the index keeps changing
        index.log.append((tuple(put), tuple(taken), tuple(cut), tuple(made), tuple(uncoupled)))
    if put or taken:
        comps = dict(comps)
        for c in put:
            old = comps.get(c.id)
            comps[c.id] = c
            s += hash(c)
            if old is not None:
                s -= hash(old)
                if index is not None:
                    index.replace(old, c)
            elif index is not None:
                index.add(c)
        for cid in taken:
            c = comps.pop(cid)
            s -= hash(c)
            if index is not None:
                index.remove(c)
    bindings = m.bindings
    links = None if index is None else index.links
    if cut:
        bindings = bindings.difference(cut)
        if links is not None:
            for b in cut:
                for cid in {b.out_component, b.in_component}:
                    if cid in comps:  # a taken component left with all its links
                        unlink(links, cid, b)
    if made:
        bindings = bindings.union(made)
        if links is not None:
            for b in made:
                link(links, b)
    out = ComponentModel(m.name, comps, bindings,
                         m.delegations.difference(uncoupled) if uncoupled else m.delegations)
    object.__setattr__(out, "_component_sum", s & _SUM_MASK)
    if index is not None:
        if m._index is index:
            object.__setattr__(m, "_index", None)
        object.__setattr__(out, "_index", index)
    return out


@record
class Change:
    """What a run's steps changed, net: each id they touched with its
    component after them, or None where it is absent, each binding they
    touched with whether it is present after them, and the delegations
    that went, which no operation adds."""

    components: dict[str, Optional[Component]]
    bindings: dict[Binding, bool]
    uncoupled: frozenset[Delegation]

    def onto(self, m: ComponentModel) -> ComponentModel:
        """``m`` changed as this says, with one :func:`derive_model`; an id
        that came and went again is absent from ``m`` and stays so."""
        put, taken, comps = [], [], m.components
        for cid, c in self.components.items():
            if c is not None:
                put.append(c)
            elif cid in comps:
                taken.append(cid)
        links = self.bindings
        return derive_model(m, put, taken, [b for b in links if not links[b]],
                            [b for b in links if links[b]], self.uncoupled)


# one change derive_model made, as a log keeps it: put, taken, cut, made, uncoupled
Derived = tuple[tuple[Component, ...], tuple[str, ...], tuple[Binding, ...],
                tuple[Binding, ...], tuple[Delegation, ...]]


def composed(steps: Iterable[Iterable[Derived]]) -> Change:
    """The net change of ``steps``, taken one after another, each the
    changes :func:`derive_model` made for it, in order."""
    comps: dict[str, Optional[Component]] = {}
    links: dict[Binding, bool] = {}
    uncoupled: set[Delegation] = set()
    for step in steps:
        for put, taken, cut, made, gone in step:  # each holds a few items at most
            for c in put:
                comps[c.id] = c
            for cid in taken:
                comps[cid] = None
            for b in cut:
                links[b] = False
            for b in made:
                links[b] = True
            uncoupled.update(gone)
    return Change(comps, links, frozenset(uncoupled))


def erase_component(c: Component) -> Component:
    """``c`` with every parameter value blanked (class kept); ``c`` itself
    when it has no parameters."""
    if not c.params:
        return c
    return c.evolve(params={p: Param(pv.cls, None) for p, pv in c.params.items()})


def erase_param_values(m: ComponentModel) -> ComponentModel:
    """Copy of ``m`` with every parameter value blanked (class kept).

    Used to compare models while ignoring parameter-updating operations.
    Components without parameters are shared with ``m``, so comparing two
    erased models of one path mostly compares components by identity.  The
    copy holds no index; ``m``'s, if it holds one, says which to blank.
    """
    comps, index = m.components, m._index
    holders = comps if index is None else index.part("holders", m)
    return derive_model(m, [erase_component(c) for c in map(comps.__getitem__, holders)
                            if c.params])


def parent_of(m: ComponentModel, cid: str, index: ModelIndex) -> Optional[str]:
    """The id of the component of ``m`` that contains ``cid``, or None, looked
    up in the ``parents`` part of ``index``, the one an operation took from ``m``."""
    comps = m.components
    for pid in index.part("parents", m):
        if cid in comps[pid].contains:
            return pid
    return None


def component_type_errors(cid: str, c: Component) -> Iterator[str]:
    """The typing rules of one component: disjoint parameter, input and
    output names; composites without parameters; each parameter value of
    its class (or None, in erased models)."""
    p, i, o = c.params.keys(), c.inputs.keys(), c.outputs.keys()
    for a, b, what in ((p, i, "param/input"), (p, o, "param/output"), (i, o, "input/output")):
        if not a.isdisjoint(b):
            yield f"component '{cid}' reuses {what} names {sorted(a & b)}"
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
    # bodies whose typing rules passed, by the identities of their field
    # objects, which components declared with one body share; the model holds
    # those objects for the whole call, so no id is reused during it.  A body
    # that fails is checked again, so each message names its own component
    typed: set[tuple[int, int, int, bool]] = set()

    for cid, c in comps.items():
        if c.id != cid:
            errs.append(f"component keyed '{cid}' carries id '{c.id}'")
        if c.state not in (STARTED, STOPPED):
            errs.append(f"component '{cid}' has unknown lifecycle state '{c.state}'")
        body = (id(c.params), id(c.inputs), id(c.outputs), not c.contains)
        if body not in typed:
            before = len(errs)
            errs.extend(component_type_errors(cid, c))
            if len(errs) == before:
                typed.add(body)
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
    # of each component whose parent chain was walked, the first component the
    # chain meets twice (the entry of the cycle it reaches, or itself on the
    # cycle), or None where it ends at a root; a chain is walked only up to a
    # component whose entry is known, so every component is walked once
    entry: dict[str, Optional[str]] = {}
    for cid in parent:
        chain: dict[str, int] = {}  # position of each component on the chain
        cur = cid
        while cur in parent and cur not in entry and cur not in chain:
            chain[cur] = len(chain)
            cur = parent[cur]
        if cur in chain:  # a cycle no chain walked before reached
            at = chain[cur]
            entry.update((x, x if i >= at else cur) for x, i in chain.items())
        else:
            entry.update(dict.fromkeys(chain, entry.get(cur)))
    errs.extend(f"subcomponent cycle through '{entry[cid]}'" for cid in comps
                if entry.get(cid) is not None)

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


@record
class TrueAtom:
    pass


@record
class FalseAtom:
    pass


@record
class ComponentPresent:
    id: str


@record
class Started:
    id: str


@record
class Bound:
    out_component: str
    out_port: str
    in_component: str
    in_port: str


@record
class Subcomponent:
    child: str
    parent: str


@record
class ParamCmp:
    component: str
    param: str
    relop: str  # one of < <= = != >= >
    literal: Union[int, str, bool]


@record
class Not:
    inner: "ConfigProperty"


@record
class And:
    left: "ConfigProperty"
    right: "ConfigProperty"


@record
class Or:
    left: "ConfigProperty"
    right: "ConfigProperty"


@record
class Implies:
    left: "ConfigProperty"
    right: "ConfigProperty"


@record
class ForAll:
    var: str
    domain: str  # "components" | "bindings"
    body: "ConfigProperty"


@record
class Exists:
    var: str
    domain: str
    body: "ConfigProperty"


@record
class VarClassIs:
    var: str
    cls: str


@record
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


def binding_key(b: Binding) -> tuple[str, str, str, str]:
    """The order in which bindings are printed and quantified over."""
    return b.out_component, b.out_port, b.in_component, b.in_port


def _domain_values(m: ComponentModel, domain: str) -> Iterator[tuple]:
    if domain == "components":
        for cid in sorted(m.components):
            yield ("component", cid)
    elif domain == "bindings":
        for b in sorted(m.bindings, key=binding_key):
            yield ("binding", b)
    else:
        raise CpEvalError(f"unknown quantifier domain '{domain}'")


def eval_cp(cp: ConfigProperty, m: ComponentModel, env: Optional[_Env] = None) -> bool:
    """Truth value of ``cp`` on ``m`` under standard first-order semantics.

    Membership atoms (component / bound / subcomponent) are false when the
    named entities are absent.  Attribute atoms raise :class:`CpEvalError`
    when their subject does not exist, so a property written against the
    wrong vocabulary fails loudly instead of silently evaluating false.

    A tree walk on every call: each node is dispatched once, by its type,
    to its clause in ``_CLAUSES``.
    """
    try:
        clause = _CLAUSES[type(cp)]
    except KeyError:
        clause = _eval_other
    return clause(cp, m, env or {})


def _eval_other(cp: ConfigProperty, m: ComponentModel, env: _Env) -> bool:
    # an instance of a subclass of a node type is evaluated as that node
    for node_type, clause in _CLAUSES.items():
        if isinstance(cp, node_type):
            return clause(cp, m, env)
    raise CpEvalError(f"unknown property node {cp!r}")


def _eval_started(cp: Started, m: ComponentModel, env: _Env) -> bool:
    c = m.components.get(cp.id)
    if c is None:
        raise CpEvalError(f"started(): unknown component '{cp.id}'")
    return c.state == STARTED


def _eval_subcomponent(cp: Subcomponent, m: ComponentModel, env: _Env) -> bool:
    parent = m.components.get(cp.parent)
    return parent is not None and cp.child in parent.contains


def _eval_forall(cp: ForAll, m: ComponentModel, env: _Env) -> bool:
    # one scope per evaluation, rebound per value: an inner quantifier copies it
    scope, var, body = dict(env), cp.var, cp.body
    for v in _domain_values(m, cp.domain):
        scope[var] = v
        if not eval_cp(body, m, scope):
            return False
    return True


def _eval_exists(cp: Exists, m: ComponentModel, env: _Env) -> bool:
    scope, var, body = dict(env), cp.var, cp.body
    for v in _domain_values(m, cp.domain):
        scope[var] = v
        if eval_cp(body, m, scope):
            return True
    return False


def _eval_var_class_is(cp: VarClassIs, m: ComponentModel, env: _Env) -> bool:
    kind, val = _lookup_var(env, cp.var)
    if kind != "component":
        raise CpEvalError(f"class({cp.var}): variable is not component-typed")
    c = m.components.get(val)
    if c is None:
        raise CpEvalError(f"class({cp.var}): component '{val}' not in model")
    return c.cls == cp.cls


def _eval_var_present(cp: VarPresent, m: ComponentModel, env: _Env) -> bool:
    kind, val = _lookup_var(env, cp.var)
    if kind == "component":
        return val in m.components
    return val in m.bindings


# node type -> clause(cp, m, env); the order is the order _eval_other tests
_CLAUSES: dict[type, Callable[[ConfigProperty, ComponentModel, _Env], bool]] = {
    TrueAtom: lambda cp, m, env: True,
    FalseAtom: lambda cp, m, env: False,
    ComponentPresent: lambda cp, m, env: cp.id in m.components,
    Started: _eval_started,
    Bound: lambda cp, m, env: Binding(cp.out_component, cp.out_port,
                                      cp.in_component, cp.in_port) in m.bindings,
    Subcomponent: _eval_subcomponent,
    ParamCmp: lambda cp, m, env: _eval_param_cmp(cp, m),
    Not: lambda cp, m, env: not eval_cp(cp.inner, m, env),
    And: lambda cp, m, env: eval_cp(cp.left, m, env) and eval_cp(cp.right, m, env),
    Or: lambda cp, m, env: eval_cp(cp.left, m, env) or eval_cp(cp.right, m, env),
    Implies: lambda cp, m, env: (not eval_cp(cp.left, m, env)) or eval_cp(cp.right, m, env),
    ForAll: _eval_forall,
    Exists: _eval_exists,
    VarClassIs: _eval_var_class_is,
    VarPresent: _eval_var_present,
}


# a compiled property: its truth value on a model under a variable environment
CompiledCp = Callable[[ComponentModel, _Env], bool]


def compile_cp(cp: ConfigProperty) -> CompiledCp:
    """Closure ``fn`` with ``fn(m, env) == eval_cp(cp, m, env)``.

    Only the connectives, the quantifiers and ``Bound`` (its
    :class:`Binding` built once) are compiled; every other node, a subclass
    instance or a non-node included, is evaluated by its clause of
    :func:`eval_cp`, so errors are raised when evaluating, never when
    compiling, with :func:`eval_cp`'s messages and order.  A quantifier
    evaluates its body once per component class, or once per model over
    bindings (:func:`_compile_quantifier`).
    """
    kind = type(cp)
    if kind is Not:
        inner = compile_cp(cp.inner)
        return lambda m, env: not inner(m, env)
    if kind is And:
        left, right = compile_cp(cp.left), compile_cp(cp.right)
        return lambda m, env: left(m, env) and right(m, env)
    if kind is Or:
        left, right = compile_cp(cp.left), compile_cp(cp.right)
        return lambda m, env: left(m, env) or right(m, env)
    if kind is Implies:
        left, right = compile_cp(cp.left), compile_cp(cp.right)
        return lambda m, env: (not left(m, env)) or right(m, env)
    if kind is ForAll or kind is Exists:
        return _compile_quantifier(cp.var, cp.domain, compile_cp(cp.body), kind is ForAll)
    if kind is Bound:
        b = Binding(cp.out_component, cp.out_port, cp.in_component, cp.in_port)
        return lambda m, env: b in m.bindings
    clause = _CLAUSES.get(kind)
    return partial(eval_cp, cp) if clause is None else partial(clause, cp)


def _compile_quantifier(var: str, domain: str, body: CompiledCp,
                        universal: bool) -> CompiledCp:
    """A quantifier that evaluates ``body`` once per class of equal values.

    A body reads its variable only through ``class(var)`` and
    ``present(var)``.  Over a model's own components ``present(var)`` is
    true and ``class(var)`` cannot fail, so the body's value, or the error
    it raises, depends on the component's class alone.  :func:`eval_cp`
    stops at the first id, in sorted order, whose body is false (for
    ``forall``), true (for ``exists``) or raises; that id is the least id of
    the first such class in the order of the classes' least ids.  So the
    body is evaluated on the least id of each class, in that order, with
    the same value and the same error.  Over bindings ``present(var)`` is
    true and ``class(var)`` raises the same error for every binding, so any
    one binding stands for all.
    """
    def over_components(m: ComponentModel, env: _Env) -> bool:
        # one scope per evaluation, rebound per class: no compiled body keeps env
        scope = dict(env)
        for cid in _least_ids(m):
            scope[var] = ("component", cid)
            if body(m, scope) is not universal:
                return not universal
        return universal

    def over_bindings(m: ComponentModel, env: _Env) -> bool:
        if not m.bindings:
            return universal
        return body(m, {**env, var: ("binding", next(iter(m.bindings)))})

    def unknown(m: ComponentModel, env: _Env) -> bool:
        raise CpEvalError(f"unknown quantifier domain '{domain}'")

    return {"components": over_components, "bindings": over_bindings}.get(domain, unknown)


def _least_ids(m: ComponentModel) -> list[str]:
    """The least id of each class of ``m``'s components, in increasing order:
    read off the index ``m`` holds, or found by one scan."""
    index = m._index
    if index is not None:
        return sorted([ids[0] for ids in index.part("classes", m).values()])
    least: dict[str, str] = {}
    for cid, c in m.components.items():
        if least.setdefault(c.cls, cid) > cid:
            least[c.cls] = cid
    return sorted(least.values())


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
