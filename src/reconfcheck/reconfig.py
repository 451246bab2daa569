"""Evolution operations: primitive and composite reconfigurations plus run.

Every operation is robust: when its precondition is not satisfiable on the
input model it behaves like the identity function and returns its input.
There is no error channel by design — a failed reconfiguration *is* the
identity reconfiguration.  A consequence is that the topological
primitives (component/binding addition and removal) are idempotent.
``run_path`` steps a path's run; each reader finds its repeat on its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence, Union

from .model import (
    STOPPED,
    STARTED,
    Binding,
    Component,
    ComponentModel,
    ModelIndex,
    Param,
    component_type_errors,
    derive_model,
    erase_param_values,
    hold_index,
    model_index,
    parent_of,
)
from .record import record

if TYPE_CHECKING:  # pathspec reads paths through adl, which imports this module
    from .pathspec import PathAutomaton

RUN_NAME = "run"


# --- integer expressions for parameter updates --------------------------------

@record
class IntLiteral:
    value: int


@record
class ParamRef:
    component: str
    param: str


@record
class BinOp:
    op: str  # + - *
    left: "IntExpr"
    right: "IntExpr"


IntExpr = Union[IntLiteral, ParamRef, BinOp]


def eval_int_expr(expr: IntExpr, m: ComponentModel) -> Optional[int]:
    """Evaluate against current parameter values; None when any reference fails."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, ParamRef):
        c = m.components.get(expr.component)
        if c is None:
            return None
        pv = c.params.get(expr.param)
        if pv is None or pv.cls != "int" or not isinstance(pv.value, int):
            return None
        return pv.value
    lhs = eval_int_expr(expr.left, m)
    rhs = eval_int_expr(expr.right, m)
    if lhs is None or rhs is None:
        return None
    if expr.op == "+":
        return lhs + rhs
    if expr.op == "-":
        return lhs - rhs
    if expr.op == "*":
        return lhs * rhs
    raise ValueError(f"unknown operator '{expr.op}'")


# --- primitive operations ------------------------------------------------------

@record
class AddComponent:
    # full component template; lifecycle is forced to stopped on insertion,
    # contains entries attach existing components as children of the new one
    template: Component


@record
class RemoveComponent:
    id: str


@record
class Bind:
    binding: Binding


@record
class Unbind:
    binding: Binding


@record
class SetParam:
    component: str
    param: str
    expr: IntExpr


@record
class Stop:
    id: str


@record
class Start:
    id: str


Primitive = Union[AddComponent, RemoveComponent, Bind, Unbind, SetParam, Stop, Start]


@record
class Run:
    """Restart every stopped component; models the software running."""


RUN = Run()


@record
class Composite:
    """A named recipe: primitive steps applied left to right."""

    name: str
    steps: tuple[Primitive, ...]


EvolutionOperation = Union[Run, Primitive, Composite]


@record
class ApplicationOutcome:
    source: ComponentModel
    result: ComponentModel

    @property
    def changed(self) -> bool:
        """Did the application change the configuration?  Compared when read,
        as ``ftpl.event_holds`` compares the models around a step."""
        return self.result != self.source


def _template_ok(t: Component, m: ComponentModel, index: ModelIndex) -> bool:
    # validate_model's typing rules, but a blank (None) value is for erased models
    if t.id in m.components or any(component_type_errors(t.id, t)):
        return False
    if any(pv.value is None for pv in t.params.values()):
        return False
    for child in t.contains:
        if child not in m.components or parent_of(m, child, index) is not None:
            return False
    return True


def _apply_add(op: AddComponent, m: ComponentModel) -> ComponentModel:
    index = model_index(m)
    if not _template_ok(op.template, m, index):
        return m
    return derive_model(m, (op.template.evolve(state=STOPPED),), index=index)


def _apply_remove(op: RemoveComponent, m: ComponentModel) -> ComponentModel:
    rid = op.id
    if rid not in m.components:
        return m
    # the target is (implicitly) stopped first, then all bindings and
    # delegations touching it disappear with it; children become roots
    index = model_index(m)
    comps = m.components
    emptied = [comps[pid] for pid in index.part("parents", m) if rid in comps[pid].contains]
    uncoupled = [d for d in m.delegations if d.composite == rid or d.inner == rid]
    return derive_model(m, [c.evolve(contains=c.contains - {rid}) for c in emptied], (rid,),
                        cut=index.part("links", m).get(rid, ()), uncoupled=uncoupled, index=index)


def _apply_bind(op: Bind, m: ComponentModel) -> ComponentModel:
    b = op.binding
    src = m.components.get(b.out_component)
    dst = m.components.get(b.in_component)
    if src is None or dst is None:
        return m
    if b.out_port not in src.outputs or b.in_port not in dst.inputs:
        return m
    if src.outputs[b.out_port] != dst.inputs[b.in_port]:
        return m
    if b in m.bindings:
        return m
    index = model_index(m)
    in_component, in_port = b.in_component, b.in_port
    for x in index.part("links", m).get(in_component, ()):
        if x.in_component == in_component and x.in_port == in_port:
            return m  # one binding per input endpoint
    return derive_model(m, made=(b,), index=index)


def _apply_unbind(op: Unbind, m: ComponentModel) -> ComponentModel:
    b = op.binding
    if b not in m.bindings:
        return m
    return derive_model(m, cut=(b,), index=model_index(m))


def _apply_set_param(op: SetParam, m: ComponentModel) -> ComponentModel:
    c = m.components.get(op.component)
    if c is None:
        return m
    pv = c.params.get(op.param)
    if pv is None or pv.cls != "int":
        return m
    value = eval_int_expr(op.expr, m)
    if value is None or value == pv.value:
        return m
    return derive_model(m, (c.evolve(params={**c.params, op.param: Param("int", value)}),),
                        index=model_index(m))


def _apply_lifecycle(cid: str, state: str, m: ComponentModel) -> ComponentModel:
    c = m.components.get(cid)
    if c is None or c.state == state:
        return m
    return derive_model(m, (c.evolve(state=state),), index=model_index(m))


def apply_primitive(op: Primitive, m: ComponentModel) -> ComponentModel:
    """Apply one primitive with robustness semantics.

    Unsatisfiable preconditions (adding an existing id, removing an absent
    one, duplicate or type-mismatched binds, updates of missing parameters)
    return the input model itself.
    """
    if isinstance(op, AddComponent):
        return _apply_add(op, m)
    if isinstance(op, RemoveComponent):
        return _apply_remove(op, m)
    if isinstance(op, Bind):
        return _apply_bind(op, m)
    if isinstance(op, Unbind):
        return _apply_unbind(op, m)
    if isinstance(op, SetParam):
        return _apply_set_param(op, m)
    if isinstance(op, Stop):
        return _apply_lifecycle(op.id, STOPPED, m)
    if isinstance(op, Start):
        return _apply_lifecycle(op.id, STARTED, m)
    raise TypeError(f"not a primitive operation: {op!r}")


def _run(m: ComponentModel) -> ComponentModel:
    """Start every component that is not started; ``m`` itself when none is."""
    index = model_index(m)
    comps = m.components
    # listed before derive_model takes them out of the stopped part
    started = [comps[cid].evolve(state=STARTED) for cid in index.part("stopped", m)]
    if not started:
        return m
    return derive_model(m, started, index=index)


def apply_evolution(op: EvolutionOperation, m: ComponentModel) -> ApplicationOutcome:
    """Apply run, a primitive, or a composite recipe.

    ``changed`` compares the result with the original model, so a
    composite whose steps cancel out reports ``changed=False``.
    """
    if isinstance(op, Run):
        result = _run(m)
    elif isinstance(op, Composite):
        result = m
        for step in op.steps:
            result = apply_primitive(step, result)
    else:
        result = apply_primitive(op, m)
    return ApplicationOutcome(m, result)


def apply_sequence(ops: Sequence[EvolutionOperation], m: ComponentModel) -> ComponentModel:
    for op in ops:
        m = apply_evolution(op, m).result
    return m


def is_idempotent_sequence(ops: Sequence[EvolutionOperation], m: ComponentModel,
                           ignore_params: bool = False) -> bool:
    """Does the composed sequence F satisfy F(F(m)) = F(m)?

    Decided semantically at the given entry model: apply twice and compare.
    With ``ignore_params`` the comparison erases all parameter values first,
    which is the right notion when the properties being checked never read
    parameters.
    """
    once = apply_sequence(ops, m)
    twice = apply_sequence(ops, once)
    if ignore_params:
        once = erase_param_values(once)
        twice = erase_param_values(twice)
    return once == twice


def run_path(a: PathAutomaton, ops: Mapping[str, EvolutionOperation], q: int,
             c: ComponentModel) -> Iterator[tuple[str, int, ComponentModel]]:
    """The run of ``a`` from (q, c): one (label, target, configuration) per
    transition, each applied only when asked for, ending at a terminal state.
    The newest configuration holds the index its operations keep (see
    :class:`~reconfcheck.model.ModelIndex`), ``c`` from this call on, so a
    reader of ``c`` can set the index's log before the first transition."""
    hold_index(c)
    return _transitions(a, ops, q, c)


def _transitions(a: PathAutomaton, ops: Mapping[str, EvolutionOperation], q: int,
                 c: ComponentModel) -> Iterator[tuple[str, int, ComponentModel]]:
    while (nxt := a.succ(q)) is not None:
        label, q = nxt
        c = apply_evolution(ops[label], c).result
        yield label, q, c


def operation_table(recipes: Mapping[str, Sequence[Primitive]]) -> dict[str, EvolutionOperation]:
    """Name-to-operation map for a set of recipes, with ``run`` built in."""
    table: dict[str, EvolutionOperation] = {RUN_NAME: RUN}
    for name, steps in recipes.items():
        if name == RUN_NAME:
            raise ValueError(f"recipe name '{RUN_NAME}' is reserved")
        table[name] = Composite(name, tuple(steps))
    return table
