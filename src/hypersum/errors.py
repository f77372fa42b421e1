"""Exception taxonomy and the frozen-record base shared across the package.

Everything raised deliberately by this library derives from ``HypersumError``
so callers (and the CLI) can map library failures to a single exit path.

``Record`` is the base of the package's result records.  It lives here
because this is the one package module the oracle imports.
"""

from __future__ import annotations

__all__ = [
    "HypersumError",
    "PoleError",
    "InvalidParameterError",
    "DivergentSeriesError",
    "WrongBranchError",
    "DomainError",
    "PrecisionUnavailableError",
    "Record",
]


class HypersumError(Exception):
    """Base class for all library errors."""


class PoleError(HypersumError):
    """Argument sits on (or within tolerance of) a pole of the gamma family."""


class InvalidParameterError(HypersumError):
    """An input no route takes: a NaN, infinite or excluded parameter, or an
    index, depth or count that is not an int in its range."""


class DivergentSeriesError(HypersumError):
    """A unit-argument series was requested outside its convergence region."""


class WrongBranchError(HypersumError):
    """An evaluator was called with parameters belonging to another branch."""


class DomainError(HypersumError):
    """A well-formed input a route cannot answer: a value past the double
    range, an index below its validity window (n <= M), a sum past its cap."""


class PrecisionUnavailableError(HypersumError):
    """The reference oracle cannot honor the requested precision."""


class Record:
    """Base of the package's immutable value records.

    A record lists its field names in ``_fields`` and fills its instance
    ``__dict__`` in its own ``__init__``.  The base supplies what a frozen
    dataclass would: ``__match_args__``, equality and hashing on (same type,
    field values), the ``Name(field=value, ...)`` repr, and an
    ``AttributeError`` on assignment or deletion.  Records compare unequal to
    tuples and are not iterable.  Generating these methods with
    ``dataclasses`` would cost a third of ``import hypersum``, and its
    ``object.__setattr__`` per field would slow the engine's per-call records.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        body = ", ".join(f"{name}={d[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
