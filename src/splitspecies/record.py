"""The base class of the package's immutable value types.

A subclass stores its attributes in ``__slots__`` and names in ``_fields``
the ones that make up its value, in constructor order: two or more, and all
of its attributes unless some are derived from the others.  Its
``__init__`` validates the arguments and stores each attribute with
``object.__setattr__``, because plain assignment raises AttributeError.
Two values are equal iff they are of the same class with equal fields; hash,
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
