"""The base of the package's immutable value classes.

Not frozen dataclasses: a CLI run is one cold process, and importing
``dataclasses`` and running its decorators took about a quarter of it.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Immutable slotted value with equality, hash and repr over its fields.

    A subclass names its fields in ``__slots__``, in constructor order;
    slots whose names start with ``_`` are private and are not fields.
    The constructor takes every field positionally.  ``_setters`` holds
    the fields' slot stores, for written-out constructors that skip the
    refusing ``__setattr__``.  As for a frozen dataclass, only instances
    of the same class compare equal, the hash is that of the tuple of
    fields, and assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = tuple(n for n in cls.__dict__.get("__slots__", ()) if not n.startswith("_"))
        if not fields:
            return
        cls._fields = fields
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)
        key = attrgetter(*fields)
        cls._key = key if len(fields) > 1 else staticmethod(lambda value: (key(value),))

    def __init__(self, *args) -> None:
        if len(args) != len(self._fields):
            name, count = type(self).__name__, len(self._fields)
            raise TypeError(f"{name}() takes {count} arguments but {len(args)} were given")
        for store, value in zip(self._setters, args):
            store(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Copies and pickles go through the constructor: restoring slot
        # state would assign attributes, which the class refuses.
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> Exception:
    from dataclasses import FrozenInstanceError  # only on this error path

    return FrozenInstanceError(message)
