"""What every record class of the package keeps: construction by position,
keyword and default, immutability, ``==`` only within one class, no
ordering, and its ``repr``."""

import copy
import dis
import pickle
import weakref

import pytest

import reconfcheck.checker  # noqa: F401  (imports every module that defines records)
import reconfcheck.cli  # noqa: F401
from reconfcheck import (
    Binding,
    CheckOptions,
    Component,
    ComponentModel,
    Delegation,
    Param,
    PathExpr,
)
from reconfcheck.ftpl import Always, Eventually
from reconfcheck.model import (
    And,
    ComponentPresent,
    Not,
    Or,
    Started,
    TrueAtom,
    component_sum,
)
from reconfcheck.record import _EQ, _HASH, Record, record


def _record_classes() -> list[type]:
    found, todo = [], [Record]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Record and cls.__module__.startswith("reconfcheck."):
            found.append(cls)
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


RECORDS = _record_classes()

# field values the classes that check or hash their fields accept
_VALID = {CheckOptions: (3, True), PathExpr: (("a",), ("b",)),
          Component: ("A", "K", {"level": Param("int", 5)}, {}, {}, frozenset(), "stopped"),
          ComponentModel: ("M", {}, frozenset(), frozenset())}


def _values(cls: type) -> tuple:
    return _VALID.get(cls, tuple(f"v{i}" for i in range(len(cls._fields))))


# a second value for each field, unequal to the one _values gives
_OTHER = {CheckOptions: (4, False), PathExpr: (("c",), ("d",)),
          Component: ("B", "L", {"level": Param("int", 6)}, {"i": "Req"}, {"o": "Resp"},
                      frozenset({"A"}), "started"),
          ComponentModel: ("N", {"A": Component("A", "K")},
                           frozenset({Binding("A", "o", "B", "i")}),
                           frozenset({Delegation("A", "p", "B", "q")}))}

# the classes that define their own hash
_OWN_HASH = {Component, ComponentModel}


def _others(cls: type) -> tuple:
    return _OTHER.get(cls, tuple(f"w{i}" for i in range(len(cls._fields))))


def test_every_record_class_is_found():
    assert len(RECORDS) == 50
    assert {Binding, Component, ComponentModel, Param, CheckOptions} <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_positional_keyword_and_default_construction_agree(cls):
    values = _values(cls)
    by_position = cls(*values)
    assert by_position == cls(**dict(zip(cls._fields, values)))
    assert hash(by_position) == hash(cls(**dict(zip(cls._fields, values))))
    assert [getattr(by_position, f) for f in cls._fields] == list(values)
    required = [f for f in cls._fields if f not in cls._defaults]
    assert cls._fields[:len(required)] == tuple(required)
    defaults = [cls._defaults[f] for f in cls._fields[len(required):]]
    assert cls(*values[:len(required)]) == cls(*values[:len(required)], *defaults)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_cannot_be_changed_or_ordered(cls):
    record = cls(*_values(cls))
    for name in cls._fields[:1] + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, f) for f in cls._fields] == list(_values(cls))
    with pytest.raises(TypeError):
        record < record  # noqa: B015
    with pytest.raises(TypeError):
        record >= record  # noqa: B015


def test_records_of_two_classes_with_equal_fields_are_unequal():
    for a, b, values in [(Always, Eventually, ("x",)), (And, Or, ("l", "r")),
                         (Binding, Delegation, ("a", "p", "b", "q")),
                         (Started, ComponentPresent, ("A",))]:
        assert a(*values) != b(*values) and not a(*values) == b(*values)
        assert a(*values) == a(*values) and not a(*values) != a(*values)
    by_arity: dict[int, list[type]] = {}
    for cls in RECORDS:
        if cls not in _VALID:
            by_arity.setdefault(len(cls._fields), []).append(cls)
    for classes in by_arity.values():
        records = [cls(*_values(cls)) for cls in classes]
        assert all((x == y) is (i == j) for i, x in enumerate(records)
                   for j, y in enumerate(records))


def test_a_record_hashes_as_the_tuple_of_its_fields():
    # as a frozen dataclass does: a record of one field does not hash as the
    # field itself
    cp = ComponentPresent("A")
    for r in (cp, Not(cp), Always(cp), TrueAtom(), Param("int", 5), And(cp, cp),
              Binding("A", "o", "B", "i")):
        assert hash(r) == hash(tuple(getattr(r, f) for f in r._fields))
    assert hash(Not(cp)) != hash(cp)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_records_that_differ_in_any_one_field_are_unequal(cls):
    values, others = _values(cls), _others(cls)
    record = cls(*values)
    for i in range(len(values)):
        changed = cls(*values[:i], others[i], *values[i + 1:])
        assert record != changed and not record == changed, cls._fields[i]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_every_class_without_its_own_hash_hashes_the_tuple_of_its_fields(cls):
    assert (cls.__hash__.__code__.co_name == "__hash__") is (cls in _OWN_HASH)
    if cls not in _OWN_HASH:
        for values in (_values(cls), _others(cls)):
            assert hash(cls(*values)) == hash(values)


def test_each_class_has_its_own_eq_and_hash_code():
    # the interpreter specialises a slot read in caches kept in the code object,
    # so each class takes a copy of the shared code, never the code itself
    shared = {id(f.__code__) for f in (*_EQ, *_HASH)}
    for codes in ([cls.__eq__.__code__ for cls in RECORDS],
                  [cls.__hash__.__code__ for cls in RECORDS if cls not in _OWN_HASH]):
        ids = {id(code) for code in codes}
        assert len(ids) == len(codes) and not ids & shared


def test_construction_checks_its_arguments():
    with pytest.raises(ValueError, match="max_steps"):
        CheckOptions(max_steps=0)
    with pytest.raises(ValueError, match="cycle"):
        PathExpr(("a",), ())
    with pytest.raises(TypeError, match="missing argument 'cls'"):
        Param(value=1)
    with pytest.raises(TypeError, match="no field for 'kind'"):
        Param("int", 1, kind="x")
    with pytest.raises(TypeError, match="two values for 'cls'"):
        Param("int", cls="int")
    with pytest.raises(TypeError, match="takes 2 arguments but 3"):
        Param("int", 1, 2)
    eight = type("Eight", (), {"__annotations__": {f"f{i}": int for i in range(8)}})
    with pytest.raises(TypeError, match="at most 7 fields"):
        record(eight)


def test_a_default_dict_is_not_shared():
    a, b = Component(id="A", cls="K"), Component(id="B", cls="K")
    assert a.params == {} and a.params is not b.params
    assert ComponentModel("M").components is not ComponentModel("N").components


def test_reprs_are_those_of_the_field_values():
    b = Binding("A", "o", "B", "i")
    p = Param("int", 5)
    c = Component("A", "K", {"level": p}, {"i": "Req"}, {"o": "Resp"}, frozenset({"B"}),
                  "stopped")
    m = ComponentModel("M", {"A": c}, frozenset({b}), frozenset())
    hash(c)
    component_sum(m)
    assert repr(b) == "Binding(out_component='A', out_port='o', in_component='B', in_port='i')"
    assert repr(p) == "Param(cls='int', value=5)"
    component = ("Component(id='A', cls='K', params={'level': Param(cls='int', value=5)}, "
                 "inputs={'i': 'Req'}, outputs={'o': 'Resp'}, contains=frozenset({'B'}), "
                 "state='stopped')")
    assert repr(c) == component
    assert repr(m) == (f"ComponentModel(name='M', components={{'A': {component}}}, "
                       "bindings=frozenset({Binding(out_component='A', out_port='o', "
                       "in_component='B', in_port='i')}), delegations=frozenset())")
    assert repr(Component(id="X", cls="K")) == (
        "Component(id='X', cls='K', params={}, inputs={}, outputs={}, contains=frozenset(), "
        "state='started')")


def test_copies_keep_the_fields_and_nothing_else():
    c = Component("A", "K", {"level": Param("int", 5)})
    m = ComponentModel("M", {"A": c})
    hash(c)
    component_sum(m)
    for same in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert same == c
    for same in (copy.copy(m), pickle.loads(pickle.dumps(m))):
        assert same == m and same._component_sum is None and same._index is None
    ref = weakref.ref(m)
    assert ref() is m


def _synthetic(name: str, n: int) -> type:
    return record(type(name, (), {"__annotations__": {f"f{i}": object for i in range(n)}}))


@pytest.mark.parametrize("n", range(len(_EQ)))
def test_generated_eq_and_hash_keep_every_field_of_one_class(n):
    # two classes of n fields, fresh equal field values (equal, not identical)
    a, b = _synthetic("A", n), _synthetic("B", n)
    values = [f"v{i}" for i in range(n)]
    x = a(*values)
    assert x == a(*[f"v{i}" for i in range(n)]) and not x != a(*values)
    assert hash(x) == hash(tuple(values)) == hash(a(*values))
    for i in range(n):
        changed = a(*values[:i], "other", *values[i + 1:])
        assert x != changed and not x == changed, i
        assert hash(changed) == hash((*values[:i], "other", *values[i + 1:]))
    assert x.__eq__(b(*values)) is NotImplemented
    assert b(*values).__eq__(x) is NotImplemented
    assert x != b(*values) and not x == b(*values)


def _reads(f) -> tuple[list[tuple[str, str]], set[str], int]:
    """The (variable, attribute) pairs ``f`` loads, in order, the global names
    it loads, and the number of calls it makes."""
    reads, names, calls, previous = [], set(), 0, None
    for ins in dis.get_instructions(f):
        if ins.opname == "LOAD_ATTR":
            assert previous is not None and previous.opname.startswith("LOAD_FAST")
            assert ins.argrepr == ins.argval, ins.argrepr  # no method load
            reads.append((previous.argval, ins.argval))
        elif ins.opname in ("LOAD_GLOBAL", "LOAD_NAME", "LOAD_DEREF", "LOAD_CLOSURE"):
            names.add(ins.argval)
        calls += ins.opname.startswith("CALL")
        previous = ins
    return reads, names, calls


@pytest.mark.parametrize("n", range(len(_EQ)))
def test_generated_eq_and_hash_read_each_alias_once_by_plain_attribute_loads(n):
    aliases = [f"_{i}" for i in range(n)]
    eq_reads = [("b", "__class__"), ("a", "__class__"),
                *(("a", alias) for alias in aliases), *(("b", alias) for alias in aliases)]
    assert _reads(_EQ[n]) == (eq_reads, {"NotImplemented"}, 0)
    assert _reads(_HASH[n]) == ([("a", alias) for alias in aliases], {"hash"}, 1)
