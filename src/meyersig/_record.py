class Record:
    """The one base of the library's immutable values, in place of a frozen
    dataclass, whose import (with ``inspect``) would double the CLI's start:
    fields in ``__slots__``, defaults of trailing fields in ``_defaults``,
    validation in ``_check``. Setting and deleting attributes are refused;
    equality and hash follow the fields; ``repr`` is valid Python that
    rebuilds the value; copies and pickles rebuild via the constructor,
    called with the fields in ``__slots__`` order. A subclass may keep its
    own ``__init__`` that takes those arguments."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields, name = self.__slots__, type(self).__name__
        given = dict(zip(fields, args))
        if len(args) > len(fields) or not kwargs.keys() <= set(fields) - set(given):
            raise TypeError(f"{name} got too many, unknown or repeated arguments")
        values = {**self._defaults, **given, **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name} is missing argument {field!r}")
            object.__setattr__(self, field, values[field])
        self._check()

    def _check(self) -> None:
        """Raise if the fields break the type's invariants."""

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()
