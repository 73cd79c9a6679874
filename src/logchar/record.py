"""Frozen value records: the result types of the engine.

A subclass lists its fields as annotations, in order; a class-level value
is that field's default, and an optional ``__post_init__`` validates the
instance once its fields are set.  A record behaves like a frozen
dataclass: positional or keyword construction, equality and hashing on the
field tuple between instances of one class, the dataclass ``repr``, and no
assignment or deletion.  Defining a subclass reads its annotations and
generates no code, so importing the engine stays cheap.
"""

from itertools import repeat

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}
    _tail = ()       # the defaults of the trailing fields, in order

    def __init_subclass__(cls):
        fields = tuple(cls.__annotations__)
        defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        for before, name in zip(fields, fields[1:]):
            if before in defaults and name not in defaults:
                raise TypeError(f"non-default field {name!r} follows default field {before!r}")
        cls._fields, cls._defaults, cls._tail = fields, defaults, tuple(defaults.values())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # set field by field: an instance whose __dict__ is never touched keeps
        # CPython's inline attribute values, and its field loads stay fast
        any(map(_set, repeat(self), fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def _bind(cls, args, kwargs):
        """Field values in order, checked like the arguments of a signature."""
        fields, tail, name = cls._fields, cls._tail, cls.__qualname__
        omitted = len(fields) - len(args)
        if not kwargs and 0 <= omitted <= len(tail):
            return args + tail[len(tail) - omitted:]
        if omitted < 0:
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[f] if f in values else cls._defaults[f] for f in fields]

    def _values(self):
        return tuple(map(getattr, repeat(self), self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields) + ")")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
