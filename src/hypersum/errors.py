"""Exception taxonomy shared across the package.

Everything raised deliberately by this library derives from ``HypersumError``
so callers (and the CLI) can map library failures to a single exit path.
The public gamma-kernel functions (``gamma``, ``gamma_ratio``,
``exp_log``) reuse builtin ``OverflowError`` as-is for exponent-range
failures; the engine reports an answer outside the double range as
``DomainError``.
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
    "VerificationFailure",
]


class HypersumError(Exception):
    """Base class for all library errors."""


class PoleError(HypersumError):
    """Argument sits on (or within tolerance of) a pole of the gamma family."""


class InvalidParameterError(HypersumError):
    """Input violates a structural constraint (excluded value, bad count...)."""


class DivergentSeriesError(HypersumError):
    """A unit-argument series was requested outside its convergence region."""


class WrongBranchError(HypersumError):
    """An evaluator was called with parameters belonging to another branch."""


class DomainError(HypersumError):
    """Out-of-domain request for an otherwise well-formed operation."""


class PrecisionUnavailableError(HypersumError):
    """The reference oracle cannot honor the requested precision."""


class VerificationFailure(HypersumError):
    """A verification run found at least one failing check."""
