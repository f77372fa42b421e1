"""Parameter validation and branch classification.

The value of the excess s = c - a - b decides which expansion evaluates the
partial sum: generic s, the logarithmic case s = 0, positive-integer s (a
finite sum), negative-integer s (finite sum plus a psi-series), or the
degenerate negative-integer case where a or b is a positive integer <= m.
The n-dependent prefactors of the expansions are omega_n = Gamma(n+a)
Gamma(n+b) / (Gamma(n) Gamma(n+c)) and lambda_n, its value at c = a+b.
_log_seq_ratios is the one place that forms their large gamma pairs, from
the exact offsets, never from n+a rounded to double; _log_gamma_shift forms
the one pair of the Landau remainder bound the same way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .complexfn import (_as_complex, _check_index, _log_gamma_diff,
                        _off_pole, exp_log, nonpos_int_distance)
from .errors import InvalidParameterError, Record

__all__ = [
    "INTEGER_TOL",
    "NEAR_INTEGER_WARN",
    "GENERIC",
    "LOGARITHMIC",
    "POSITIVE_INTEGER",
    "NEGATIVE_INTEGER",
    "DEGENERATE_NEG_INTEGER",
    "ParamSet",
    "ExcessClass",
    "SeqFactors",
    "classify",
    "classify_params",
    "seq_factors",
]

if TYPE_CHECKING:  # type-only, so that `import hypersum` skips fractions
    from fractions import Fraction

    Number = Union[int, float, complex, Fraction]

# Distance within which a value counts as the integer it rounds to.  Inputs
# meant as exact rationals land within ~1e-15 of their value in double
# precision; 1e-9 gives margin without absorbing genuinely nearby parameters.
INTEGER_TOL = 1e-9
# Band [INTEGER_TOL, NEAR_INTEGER_WARN) around an integer excess: still the
# generic branch, but flagged, since its 1/s and gamma(s) factors cancel a
# divergence there and the cancellation costs precision.
NEAR_INTEGER_WARN = 1e-4

GENERIC = "generic"
LOGARITHMIC = "logarithmic"
POSITIVE_INTEGER = "positive_integer"
NEGATIVE_INTEGER = "negative_integer"
DEGENERATE_NEG_INTEGER = "degenerate_negative_integer"


class ParamSet(Record):
    """Validated parameter triple (a, b, c) of the series.

    None of a, b, c may lie within INTEGER_TOL of zero or a negative integer;
    at such points the series coefficients (or the sum itself) degenerate.
    """

    _fields = ("a", "b", "c")

    def __init__(self, a: Number, b: Number, c: Number):
        d = self.__dict__
        d["a"] = _parameter(a, "a")
        d["b"] = _parameter(b, "b")
        d["c"] = _parameter(c, "c")

    @property
    def s(self) -> complex:
        return self.c - self.a - self.b


def _parameter(z: Number, name: str) -> complex:
    """z as a complex number, or InvalidParameterError when it is not finite
    or lies within INTEGER_TOL of zero or a negative integer."""
    w = _as_complex(z, name)
    if nonpos_int_distance(w) < INTEGER_TOL:
        raise InvalidParameterError(
            f"{name} = {w!r} is (within tolerance) zero or a negative "
            "integer, which is excluded"
        )
    return w


class ExcessClass(Record):
    """Branch decision for an excess value, with conditioning warnings.

    kind is one of the module constants; m >= 1 for the integer kinds;
    p and which identify the degenerate parameter (which in {"a", "b"},
    a/b within tolerance of the positive integer p <= m).
    """

    _fields = ("kind", "m", "p", "which", "warnings")

    def __init__(self, kind: str, m: int | None = None, p: int | None = None,
                 which: str | None = None, warnings: tuple[str, ...] = ()):
        d = self.__dict__
        d["kind"] = kind
        d["m"] = m
        d["p"] = p
        d["which"] = which
        d["warnings"] = warnings


class SeqFactors(Record):
    _fields = ("omega_n", "lambda_n")

    def __init__(self, omega_n: complex, lambda_n: complex):
        d = self.__dict__
        d["omega_n"] = omega_n
        d["lambda_n"] = lambda_n


def classify(a: Number, b: Number, c: Number) -> ExcessClass:
    """Classify the excess s = c-a-b of a (validated) parameter triple."""
    return classify_params(ParamSet(a, b, c))


def classify_params(p: ParamSet) -> ExcessClass:
    """classify() for a triple already validated as a ParamSet."""
    a, b, c = p.a, p.b, p.c
    s = c - a - b
    warnings: list[str] = []
    for name, shifted in (("a", c - a), ("b", c - b)):
        dist = nonpos_int_distance(shifted)
        if dist < INTEGER_TOL:
            warnings.append(f"gamma_pole_c_minus_{name}")
        elif dist < NEAR_INTEGER_WARN:
            warnings.append(f"near_gamma_pole_c_minus_{name}")

    m0 = round(s.real)
    dist = abs(s - m0)
    if dist >= INTEGER_TOL:
        if dist < NEAR_INTEGER_WARN:
            warnings.append("near_integer_excess")
        return ExcessClass(kind=GENERIC, warnings=tuple(warnings))
    if m0 == 0:
        return ExcessClass(kind=LOGARITHMIC, warnings=tuple(warnings))
    if m0 >= 1:
        return ExcessClass(kind=POSITIVE_INTEGER, m=m0, warnings=tuple(warnings))

    m = -m0
    # Degenerate when a or b sits at a positive integer p <= m.  The largest
    # such p is the tight choice: (p-m)_k ends the finite sum after m-p+1
    # terms, the fewest either parameter gives.
    best: tuple[int, str] | None = None
    for name, value in (("a", a), ("b", b)):
        k = round(value.real)
        if 1 <= k <= m and abs(value - k) < INTEGER_TOL:
            if best is None or k > best[0]:
                best = (k, name)
    if best is not None:
        return ExcessClass(
            kind=DEGENERATE_NEG_INTEGER,
            m=m,
            p=best[0],
            which=best[1],
            warnings=tuple(warnings),
        )
    return ExcessClass(kind=NEGATIVE_INTEGER, m=m, warnings=tuple(warnings))


def _log_seq_ratios(n, a, b, *xs) -> list[complex]:
    """log Gamma(n+a) Gamma(n+b) / (Gamma(n) Gamma(n+x)) for real n and each
    x in xs, sharing log Gamma(n+a)/Gamma(n): log omega_n at x = c, log
    lambda_n at x = a+b.

    Nothing is checked.  For a ParamSet's a, b, c and n >= 1, the arguments
    n, n+a, n+b and n+c keep INTEGER_TOL from every pole; n+a+b need not, so
    a caller passing x = a+b tests it first.
    """
    head = _log_gamma_diff(n, a, 0j)
    return [head + _log_gamma_diff(n, b, x) for x in xs]


def _log_gamma_shift(n, x: complex) -> complex:
    """log Gamma(n+x)/Gamma(n) for real n, from the exact offset x.  Nothing
    is checked: n and n+x must keep off the poles."""
    return _log_gamma_diff(n, x, 0j)


def seq_factors(p: ParamSet, n: int) -> SeqFactors:
    """omega_n and lambda_n, the gamma-ratio prefactors of the expansions."""
    _check_index(n)
    _off_pole(p.a + p.b + n, "gamma_ratio")
    log_omega, log_lambda = _log_seq_ratios(n, p.a, p.b, p.c, p.a + p.b)
    return SeqFactors(omega_n=exp_log(log_omega, "omega_n"),
                      lambda_n=exp_log(log_lambda, "lambda_n"))
