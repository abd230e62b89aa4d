"""Plain record classes: equality, hash and repr over a class's fields.

A record class names its fields in `__slots__` and sets each of them once in
its own `__init__`, through `object.__setattr__`, taking them positionally
in that order; any later assignment raises AttributeError.  A slot whose
name starts with `_` holds state derived from the fields: it is outside
equality, hash, repr and pickling.  These are the semantics
`@dataclass(frozen=True)` generates, without importing `dataclasses` (and
`inspect`) at start-up.
"""


class Record:
    """A frozen record: equal to a record of its own class with equal
    fields, hashed over its fields (so a record with a dict or list field
    raises TypeError when hashed), and pickled and copied through its
    `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
