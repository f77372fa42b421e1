"""Extended-precision reference evaluator.

Computes trusted values of the quantities the rest of the package
approximates in double precision: raw term-by-term partial sums of the
hypergeometric series at unit argument, gamma and digamma values, and the
Landau constants.  None of it shares code with the double-precision kernel,
so agreement between the two is meaningful evidence rather than a tautology.

Partial sums run on Python integers in fixed point: the parameters become
exact integers over one common denominator, and the term and the running sum
are Gaussian integers scaled by a power of two, with a bound on the
floor-rounding error carried beside them.  When that bound does not prove the
working precision, the sum is redone in mpmath; the Landau constants are
such sums too.  Gamma and digamma run in mpmath.  mpmath is imported by
the functions that use it, so importing this module does not load it.

Each quantity has one function, which takes its precision as ``digits``
(default 40).  The working precision carries ten guard digits beyond what
is reported.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Integral
from typing import Union

from .errors import InvalidParameterError, PrecisionUnavailableError, Record

__all__ = [
    "OracleValue",
    "ErrorReport",
    "DEFAULT_DIGITS",
    "partial_sum_ref",
    "gamma_ref",
    "digamma_ref",
    "landau_ref",
    "compare",
]

Number = Union[int, float, complex, Fraction]

DEFAULT_DIGITS = 40
_MIN_DIGITS = 30
_MAX_DIGITS = 100_000
_GUARD_DIGITS = 10
_MAX_PARTIAL_SUM_N = 100_000
_ZERO = Fraction(0)


class OracleValue(Record):
    """A reference value together with its stated precision."""

    _fields = ("value", "digits")

    def __init__(self, value, digits: int):
        d = self.__dict__
        d["value"] = value  # an mpmath mpc
        d["digits"] = digits

    def as_complex(self) -> complex:
        import mpmath as mp
        return complex(float(mp.re(self.value)), float(mp.im(self.value)))


class ErrorReport(Record):
    """Deviation of a double-precision value from a reference value."""

    _fields = ("abs_err", "rel_err", "reference_precision")

    def __init__(self, abs_err: float, rel_err: float,
                 reference_precision: int):
        d = self.__dict__
        d["abs_err"] = abs_err
        d["rel_err"] = rel_err
        d["reference_precision"] = reference_precision


def _exact(x: Number, name: str) -> tuple[Fraction, Fraction]:
    """Real and imaginary parts of x as exact rationals (floats by their
    binary value), after the type and finiteness checks."""
    if isinstance(x, Fraction):
        return x, _ZERO
    if isinstance(x, Integral):
        return Fraction(int(x)), _ZERO
    if isinstance(x, complex):
        parts = (x.real, x.imag)
    elif isinstance(x, float):
        parts = (x, 0.0)
    else:
        raise InvalidParameterError(
            f"{name} has unsupported type {type(x).__name__}")
    if not all(map(math.isfinite, parts)):
        raise InvalidParameterError(f"{name} must be finite, got {x!r}")
    return Fraction(parts[0]), Fraction(parts[1])


def _mp_of(z: tuple[Fraction, Fraction]):
    """An exact (re, im) pair at the current precision; real when im is 0."""
    import mpmath as mp
    re, im = (mp.mpf(p.numerator) / mp.mpf(p.denominator) for p in z)
    return re if im == 0 else mp.mpc(re, im)


def _to_mp(x: Number, name: str):
    return _mp_of(_exact(x, name))


def _checked_digits(digits: int | None) -> int:
    """The stated precision: DEFAULT_DIGITS for None, else digits once it
    is an integer in the supported range."""
    if digits is None:
        return DEFAULT_DIGITS
    if not isinstance(digits, Integral):
        raise InvalidParameterError("digits must be an integer")
    if digits < _MIN_DIGITS:
        raise InvalidParameterError(f"digits must be >= {_MIN_DIGITS}, got {digits}")
    if digits > _MAX_DIGITS:
        raise PrecisionUnavailableError(
            f"digits = {digits} exceeds the supported maximum {_MAX_DIGITS}"
        )
    return digits


def _partial_sum_mp(a, b, c, n: int):
    # t_{k+1} = t_k (a+k)(b+k) / ((c+k)(k+1)); sum the first n terms.
    import mpmath as mp
    total = mp.mpf(1)
    term = mp.mpf(1)
    for k in range(n - 1):
        den = (c + k) * (k + 1)
        if den == 0:
            raise InvalidParameterError(
                f"series coefficient pole: c + {k} = 0 with c = {c}"
            )
        term = term * (a + k) * (b + k) / den
        total += term
    return total


def _fixed_point_sum(a, b, c, n: int, work: int):
    """S_n at exact (re, im) parameters to `work` bits, or None.

    The term and the running sum are Gaussian integers scaled by 2**scale.
    Each step floors, which adds under one ulp to the term's error (under
    sqrt 2 for complex terms; the bound carries 1.5) and scales the error it
    carries by |ratio|.  The summed bound must fall below 2**-work |S_n|,
    tested on bit lengths; when it does not (cancellation, an exact zero, a
    bound past the float range), the result is None.  The bound itself is
    summed in floats; its relative rounding, about n 2**-53, is far inside
    the guard digits.
    """
    parts = a + b + c
    d = math.lcm(*(p.denominator for p in parts))
    ar, ai, br, bi, cr, ci = (p.numerator * (d // p.denominator) for p in parts)
    scale = work + 20 + 2 * n.bit_length()
    tr = sr = 1 << scale
    ti = si = 0
    # ar, br, cr and dk run as d (a+k), d (b+k), d (c+k) and d (k+1)
    dk = d
    err = bound = 0.0
    try:
        if ai == bi == ci == 0:
            for _ in range(n - 1):
                num = ar * br
                if not num:
                    break  # a + k or b + k is 0: every later term is 0
                den = cr * dk
                tr = tr * num // den
                sr += tr
                err = err * abs(num / den) + 1.0
                bound += err
                ar += d
                br += d
                cr += d
                dk += d
        else:
            for _ in range(n - 1):
                # ratio = (a+k)(b+k) conj(c+k) / (|c+k|^2 (k+1)) = p / q
                ur = ar * br - ai * bi
                ui = ar * bi + ai * br
                pr = ur * cr + ui * ci
                pi = ui * cr - ur * ci
                if not (pr or pi):
                    break  # (a+k)(b+k) is 0
                q = (cr * cr + ci * ci) * dk
                tr, ti = (tr * pr - ti * pi) // q, (tr * pi + ti * pr) // q
                sr += tr
                si += ti
                err = err * math.hypot(pr, pi) / q + 1.5
                bound += err
                ar += d
                br += d
                cr += d
                dk += d
    except OverflowError:
        return None
    size = max(abs(sr), abs(si)).bit_length()
    if not math.isfinite(bound) or math.ceil(bound).bit_length() + work >= size:
        return None
    import mpmath as mp
    return mp.mpc(mp.ldexp(sr, -scale), mp.ldexp(si, -scale))


def _partial_sum(a, b, c, n: int, digits: int):
    """S_n at exact (re, im) parameters, to digits plus the guard digits.

    Sums in fixed point, and in mpmath when the fixed-point rounding bound
    does not prove the working precision.
    """
    import mpmath as mp
    if c[1] == 0 and c[0].denominator == 1 and 0 <= -c[0] < n - 1:
        raise InvalidParameterError(
            f"series coefficient pole: c + {-c[0]} = 0 with c = {c[0]}")
    with mp.workdps(digits + _GUARD_DIGITS):
        value = _fixed_point_sum(a, b, c, n, mp.mp.prec)
        if value is None:
            value = mp.mpc(_partial_sum_mp(*map(_mp_of, (a, b, c)), n))
        return value


def partial_sum_ref(a: Number, b: Number, c: Number, n: int,
                    digits: int | None = None) -> OracleValue:
    """S_n(a, b; c), the first n terms of the Gauss series at unit argument,
    for 1 <= n <= 1e5."""
    digits = _checked_digits(digits)
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"n must be a positive integer, got {n!r}")
    if n > _MAX_PARTIAL_SUM_N:
        raise InvalidParameterError(
            f"n = {n} exceeds the partial_sum limit {_MAX_PARTIAL_SUM_N}"
        )
    value = _partial_sum(_exact(a, "a"), _exact(b, "b"), _exact(c, "c"),
                         int(n), digits)
    return OracleValue(value=value, digits=digits)


def gamma_ref(z: Number, digits: int | None = None) -> OracleValue:
    import mpmath as mp
    digits = _checked_digits(digits)
    with mp.workdps(digits + _GUARD_DIGITS):
        return OracleValue(value=mp.mpc(mp.gamma(_to_mp(z, "z"))), digits=digits)


def digamma_ref(z: Number, digits: int | None = None) -> OracleValue:
    import mpmath as mp
    digits = _checked_digits(digits)
    with mp.workdps(digits + _GUARD_DIGITS):
        return OracleValue(value=mp.mpc(mp.digamma(_to_mp(z, "z"))),
                           digits=digits)


def landau_ref(n: int, digits: int | None = None) -> OracleValue:
    """The Landau constant G_n = S_{n+1}(1/2, 1/2; 1) for any n >= 0."""
    digits = _checked_digits(digits)
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n!r}")
    half = (Fraction(1, 2), _ZERO)
    value = _partial_sum(half, half, (Fraction(1), _ZERO), int(n) + 1, digits)
    return OracleValue(value=value, digits=digits)


def compare(x: Number, ref: OracleValue) -> ErrorReport:
    """Absolute and relative deviation of x from the reference value."""
    import mpmath as mp
    with mp.workdps(ref.digits + _GUARD_DIGITS):
        xm = _to_mp(x, "x")
        abs_err = mp.fabs(xm - ref.value)
        mag = mp.fabs(ref.value)
        if mag == 0:
            rel = mp.mpf(0) if abs_err == 0 else mp.inf
        else:
            rel = abs_err / mag
        return ErrorReport(
            abs_err=float(abs_err),
            rel_err=float(rel),
            reference_precision=ref.digits,
        )
