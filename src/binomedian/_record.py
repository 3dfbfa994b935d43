"""The base of the library's immutable records.

`Record` gives a record what `@dataclass(frozen=True)` would, without
importing `dataclasses`, which loads `inspect`, `ast`, `dis` and `tokenize`
and runs `exec` for every decorated class (the launch times are in `cli`'s
docstring).  Equality holds only between instances of one class, so
`ExactRoot(1/2) != ExactRational()`; the hash and the repr are the
dataclass ones over the fields; assignment and deletion raise
AttributeError; pickling and copying rebuild through the constructor.

A subclass names its fields in `_fields`, in constructor order, declares
`__slots__` and writes its own `__init__`, setting each field with
`set_field`; a record without fields needs no `__init__`.  A slot outside
`_fields` is private state, and a class attribute a fact shared by every
instance: no comparison, hash, repr or pickle sees either.
"""

from __future__ import annotations

#: Sets a field of a record from its constructor, past the raising __setattr__.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    #: Compared, hashed, shown and pickled, in constructor order.
    _fields: tuple[str, ...] = ()
    #: Fields left out of the repr.
    _hidden: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields if name not in self._hidden
        )
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
