"""The base of the mutable record types."""

from __future__ import annotations

_MISSING = object()


class Record:
    """A mutable record whose ``__slots__`` are its fields, in order.

    The one constructor takes the fields in ``__slots__`` order, by position
    or by keyword.  A field named in the class's ``_defaults`` may be left
    out: a default that is a type (``list``, ``dict``) is called for a fresh
    value each time, and any other default is used as it is.  Two records
    are equal when they are of one type and their fields are equal.  Like a
    list, a record is not hashable.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]
    #: field name -> default, for each field that may be left out
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes its {len(fields)} fields "
                            f"({', '.join(fields)}) but {len(args)} were given")
        for name, value in zip(fields, args):
            setattr(self, name, value)
        for name in fields[len(args):]:
            value = kwargs.pop(name, _MISSING)
            if value is _MISSING:
                value = self._defaults.get(name, _MISSING)
                if value is _MISSING:
                    raise self._refusal(len(args), kwargs, name)
                if isinstance(value, type):
                    value = value()
            setattr(self, name, value)
        if kwargs:
            raise self._refusal(len(args), kwargs)

    def _refusal(self, given: int, kwargs: dict, missing: str | None = None) -> TypeError:
        """The error of a call that gives ``given`` fields by position and
        leaves ``kwargs`` unused: a keyword naming no field or a field given
        by position, before a required field left out."""
        fields, cls = self.__slots__, type(self).__qualname__
        for name in kwargs:
            if name not in fields:
                return TypeError(f"{cls}() has no field {name!r}")
            if fields.index(name) < given:
                return TypeError(f"{cls}() got field {name!r} both by position and by keyword")
        return TypeError(f"{cls}() missing required field {missing!r}")

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
