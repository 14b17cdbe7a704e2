"""The value semantics of the package's records, read off ``__slots__``.

A record's fields are the names in its class's ``__slots__`` that do not
start with an underscore, in order.  A subclass's ``__init__`` sets its
slots through ``_assign``.  ``Record`` compares two records of the same
class by their fields, prints as ``Name(field=value, ...)`` and reports
them as a dict (``to_jsonable``); like any mutable value it is unhashable.
``Frozen`` also hashes its fields and refuses assignment.
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def _assign(self, *values) -> None:
        """Set the slots, in order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> list:
        return [n for n in self.__slots__ if n[0] != "_"]

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields())

    def to_jsonable(self) -> dict:
        return dict(zip(self._fields(), self._values()))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields())
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields
        # in order; the default would set them one by one
        return self.__class__, self._values()
