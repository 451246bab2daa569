"""Immutable records: the one definition every value class of the package uses.

``@record`` turns a class into a record class, a subclass of :class:`Record`.
Its fields are its annotations, in order, each with an optional default; a
default dict is copied for each record that takes it.  A record class has a
constructor that takes the fields by position or by keyword and then calls
the class's ``__post_init__``, if it has one; ``==`` that holds only between
records of one class with equal fields; a hash of the fields; a ``repr``
that names them; and no assignment after construction.  Names the class
lists in ``__slots__`` are attributes that are not fields: None until set
with ``object.__setattr__``, and never compared, printed or copied.

Nothing is generated per class.  Each field is a slot, which attribute
reads, by far the commonest use of a record, reach as fast as any attribute.
A slot can only be made with its class, so ``@record`` makes the class anew
from the body of the one it is given.  A metaclass could make it at once,
but a class whose type is not ``type`` makes every ``isinstance`` test
against it twice as slow, and the package dispatches on record classes with
``isinstance``.  Each record class gets its own constructor, a closure over
its slots.  ``==`` and the hash compare and hash the tuple of the field
values.  They are generated once per process, when this module is
imported: one template gives the pair for each number of fields up to
seven, and the eight pairs are compiled together.  They read field ``i``
through ``_i``, a second name ``@record`` gives its slot, so that every
read is a plain slot read.  Each class takes its pair with a copy of the
code object: the interpreter specialises a slot read for one class at a
time, in caches kept in the code object, so one code shared by records of
many classes would keep missing.
"""

from __future__ import annotations

from types import FunctionType


class Record:
    """What every record class shares: the rarer paths."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values, in order, from a call with keywords or defaults."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        rest = fields[len(args):]
        for f in kwargs:
            if f not in rest:
                raise TypeError(f"{name}() got {'two values' if f in fields else 'no field'} "
                                f"for {f!r}")
        values = list(args)
        for f in rest:
            if f in kwargs:
                values.append(kwargs[f])
            elif f in self._defaults:
                d = self._defaults[f]
                values.append(d.copy() if isinstance(d, dict) else d)
            else:
                raise TypeError(f"{name}() missing argument {f!r}")
        return tuple(values)

    def __repr__(self):
        items = (f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({', '.join(items)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# == and the hash of a record of n fields, 0 to 7: the tuple of its field
# values, compared and hashed
_TEMPLATE = """
def _eq{n}(a, b):
    if b.__class__ is not a.__class__:
        return NotImplemented
    return ({a}) == ({b})

def _hash{n}(a):
    return hash(({a}))
"""
_SOURCE = "".join(_TEMPLATE.format(n=n, a="".join(f"a._{i}, " for i in range(n)),
                                   b="".join(f"b._{i}, " for i in range(n)))
                  for n in range(8))
_made: dict[str, FunctionType] = {}
exec(compile(_SOURCE, "<record == and hash>", "exec"), globals(), _made)
_EQ = tuple(_made[f"_eq{n}"] for n in range(8))
_HASH = tuple(_made[f"_hash{n}"] for n in range(8))


def _own(f: FunctionType) -> FunctionType:
    """``f`` with a copy of its code, whose inline caches see one class."""
    return FunctionType(f.__code__.replace(), f.__globals__, f.__name__)


def record(cls: type) -> type:
    """The record class with the fields, members and other slots of ``cls``,
    which derives from nothing."""
    body = dict(cls.__dict__)
    fields = tuple(body.get("__annotations__", ()))
    if len(fields) >= len(_EQ):
        raise TypeError(f"{cls.__qualname__}: a record has at most {len(_EQ) - 1} fields")
    kept = tuple(body.pop("__slots__", ()))
    for name in kept + ("__dict__", "__weakref__"):
        body.pop(name, None)
    body["_defaults"] = {f: body.pop(f) for f in fields if f in body}
    made = type(cls.__name__, (Record,), {**body, "__slots__": fields + kept,
                                          "__qualname__": cls.__qualname__, "_fields": fields})
    for i, f in enumerate(fields):
        setattr(made, f"_{i}", made.__dict__[f])
    n, setters = len(fields), tuple(made.__dict__[f].__set__ for f in fields)
    unset = tuple(made.__dict__[k].__set__ for k in kept if k != "__weakref__")
    check = body.get("__post_init__")
    finish = None
    if unset or check is not None:
        def finish(self):
            for set_kept in unset:
                set_kept(self, None)
            if check is not None:
                check(self)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = self._bind(args, kwargs)
        i = 0
        for set_field in setters:
            set_field(self, args[i])
            i += 1
        if finish is not None:
            finish(self)

    made.__init__, made.__eq__ = __init__, _own(_EQ[n])
    if "__hash__" not in body:
        made.__hash__ = _own(_HASH[n])
    return made
