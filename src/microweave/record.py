"""The base of the mutable record types."""

from __future__ import annotations


class Record:
    """A mutable record whose ``__slots__`` are its fields, in order.

    Two records are equal when they are of one type and their fields are
    equal.  Like a list, a record is not hashable.  Each subclass writes out
    its own ``__init__``.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        values = zip(self.__slots__, self._values())
        fields = ", ".join(f"{name}={value!r}" for name, value in values)
        return f"{type(self).__qualname__}({fields})"
