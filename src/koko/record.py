"""Records: classes of named fields, without `dataclasses`.

A `@dataclass` compiles generated methods for its class when the class is
created, about 0.5 ms a class; with some forty of them every `koko`
process paid about 21 ms at import, and `dataclasses` pulls in `inspect`.
A record class lists its fields in `_fields` and the defaults of some in
`_defaults`; the shared `__init__` takes the fields by position or by
name. A class built per row or per tuple has its own `__init__`, as fast
as a dataclass's, and so does one that derives fields when it is built.

Records are equal when they are of one type with equal fields: a
`NamedTuple` would also equal a tuple, or a record of another type, with
the same values, and hash alike.
"""

from __future__ import annotations


class Record:
    """Fields set by position or by name, a field left out taking its value
    in `_defaults` (shared by every record that takes it), equality and a
    repr over them. A record may be changed, so it is not hashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        values = {**self._defaults, **dict(zip(names, args))}
        for name, value in kwargs.items():
            if name not in names or name in names[: len(args)]:
                raise TypeError(f"{type(self).__name__} got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{type(self).__name__} is missing the field {name!r}")
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    """An immutable, hashable record."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash((type(self).__name__, *self._values()))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def replace(self, **changes: object) -> Frozen:
        """A copy with the fields of `changes` changed."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
