"""Plain record classes: equality, hash and repr over a class's fields.

A record class declares its fields once, in `__slots__`.  Unless it defines
its own `__init__`, it gets one that takes them by position, in that order,
or by name, and sets each once through `object.__setattr__`; a class-level
`_defaults` dict gives trailing fields their defaults.  Any later
assignment raises AttributeError.  A slot whose name starts with `_` holds
state derived from the fields: it is outside the `__init__`, equality,
hash, repr and pickling.  These are the semantics `@dataclass(frozen=True)`
generates, without importing `dataclasses` (and `inspect`) at start-up.
"""


class Record:
    """A frozen record: equal to a record of its own class with equal
    fields, hashed over its fields (so a record with a dict or list field
    raises TypeError when hashed), and pickled and copied through its
    `__init__`."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        if "__init__" in vars(cls):
            return
        # Compiled from source, as `dataclasses` does it: a call costs what a
        # hand-written one does, and a wrong call raises Python's own TypeError.
        params = "".join(f", {name}=_defaults[{name!r}]" if name in cls._defaults
                         else f", {name}" for name in fields)
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__,
                     "_defaults": cls._defaults}
        exec(f"def __init__(self{params}) -> None:{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
