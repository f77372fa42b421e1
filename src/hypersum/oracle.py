"""Extended-precision reference evaluator.

Computes trusted values of the quantities the rest of the package
approximates in double precision: raw term-by-term partial sums of the
hypergeometric series at unit argument, gamma and digamma values, and the
Landau constants.  None of it shares code with the double-precision kernel,
so agreement between the two is meaningful evidence rather than a tautology.

Partial sums run on Python integers in fixed point: the parameters become
exact integers over one common denominator, and the term and the running sum
are Gaussian integers scaled by a power of two, with a rounding bound beside
them.  The term ratio's numerator and denominator are stepped by their exact
forward differences, so each equals the direct product of its factors.  The
scale grows until the bound proves the working precision.  Past a cap, a sum
of at most _MAX_EXACT_N terms is summed exactly in Gaussian rationals and
rounded once, and a longer one raises PrecisionUnavailableError.  The Landau
constants are such sums too.
``compare`` also runs on integers: it measures a value against a reference
exactly and rounds each error once.  Only gamma, digamma and the rounding of
a sum to its mpc result use mpmath, imported by the functions that use it,
so importing this module does not load it; no function but gamma_ref and
digamma_ref enters an mpmath context.  Nor does it load fractions: a
Fraction parameter is recognised through sys.modules.  The package loads
this module on first use, as it does landau and coeffs; the CLI imports it
at module level, because perfbench's tracer, which wraps partial_sum_ref
and landau_ref, looks it up in sys.modules when it starts, after importing
the CLI.

Each quantity has one function, which takes its precision as ``digits``
(default 40).  The working precision carries ten guard digits beyond what
is reported.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral
from typing import TYPE_CHECKING, Union

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

if TYPE_CHECKING:  # type-only, so that `import hypersum` skips fractions
    from fractions import Fraction

    Number = Union[int, float, complex, Fraction]

DEFAULT_DIGITS = 40
_MIN_DIGITS = 30
_MAX_DIGITS = 100_000
_GUARD_DIGITS = 10
_MAX_PARTIAL_SUM_N = 100_000
_MAX_EXTRA_BITS = 1 << 16
# largest n whose partial sum, when no fixed-point pass proves it, is summed
# exactly in Gaussian rationals
_MAX_EXACT_N = 200
# least bits of the integer square root that compare rounds to a float
_ROOT_BITS = 140


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


def _exact(x: Number, name: str) -> tuple:
    """Real and imaginary parts of x as given (int, float or Fraction), after
    the type and finiteness checks; each is exact by its as_integer_ratio()."""
    if isinstance(x, complex):
        parts = (x.real, x.imag)
    elif isinstance(x, float):
        parts = (x, 0.0)
    else:
        # no Fraction exists before fractions loads, so the check need not
        # load it
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(x, fractions.Fraction):
            return x, 0
        if isinstance(x, Integral):
            return int(x), 0
        raise InvalidParameterError(
            f"{name} has unsupported type {type(x).__name__}")
    if not all(map(math.isfinite, parts)):
        raise InvalidParameterError(f"{name} must be finite, got {x!r}")
    return parts


def _mp_of(z: tuple):
    """An exact (re, im) pair at the current precision; real when im is 0."""
    import mpmath as mp
    re, im = (mp.mpf(num) / mp.mpf(den)
              for num, den in (p.as_integer_ratio() for p in z))
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


def _fixed_point_pass(ar, ai, br, bi, cr, ci, d, n: int, scale: int):
    """(sr, si, bound): S_n = (sr + i si) 2**-scale within bound 2**-scale.

    The parameters are integers over the common denominator d, and the term
    and the running sum are Gaussian integers scaled by 2**scale.  Each step
    scales the term's error by |ratio|, and one that leaves a remainder adds
    under one ulp to it (under sqrt 2 for complex terms; the bound carries
    1.5), so bound == 0 means the sum is exact.  The bound is summed in
    floats; its relative rounding, about n 2**-53, is far inside the guard
    digits.

    The ratio's numerator and denominator are polynomials in x = d k with
    integer coefficients.  Each step advances them by their exact forward
    differences, formed once before the loop, so every one equals the direct
    product of the factors it stands for.
    """
    tr = sr = 1 << scale
    ti = si = 0
    err = bound = 0.0
    div = divmod
    # f = x^m + s1 x^(m-1) + ... steps as f += f1, f1 += f2, ..., with its
    # differences at step d starting at x = 0 as: for a quadratic
    # f1 = d (d + s1), f2 = 2 d^2; for a cubic f1 = d (d^2 + s1 d + s2),
    # f2 = 2 d^2 (3 d + s1) and the constant f3 = 6 d^3.
    dd = d * d
    try:
        if ai == bi == ci == 0:
            # num = d (a+k) d (b+k) and den = d (c+k) d (k+1)
            num, num1 = ar * br, d * (d + ar + br)
            den, den1 = cr * d, d * (2 * d + cr)
            f2 = 2 * dd
            for _ in range(n - 1):
                if not num:
                    break  # a + k or b + k is 0: every later term is 0
                tr, rem = div(tr * num, den)
                sr += tr
                err = err * abs(num / den) + (1.0 if rem else 0.0)
                bound += err
                num += num1
                num1 += f2
                den += den1
                den1 += f2
        else:
            # ratio = (a+k)(b+k) conj(c+k) / (|c+k|^2 (k+1)) = p / q, with
            # A = d a, B = d b and C = d conj c: p's s1 = A + B + C,
            # s2 = AB + (A + B) C, and q's s1 = 2 cr + d, s2 = |C|^2 + 2 cr d;
            # f3 is real, so p's imaginary part stops at a constant pi2
            ur, ui = ar * br - ai * bi, ar * bi + ai * br
            er, ei = ar + br, ai + bi
            s1r, s1i = er + cr, ei - ci
            c2 = cr * cr + ci * ci
            pr, pi = ur * cr + ui * ci, ui * cr - ur * ci
            pr1 = d * (dd + s1r * d + ur + er * cr + ei * ci)
            pi1 = d * (s1i * d + ui + ei * cr - er * ci)
            pr2, pi2 = 2 * dd * (3 * d + s1r), 2 * dd * s1i
            f3 = 6 * dd * d
            q, q1 = c2 * d, d * (2 * dd + 4 * cr * d + c2)
            q2 = 4 * dd * (2 * d + cr)
            for _ in range(n - 1):
                if not (pr or pi):
                    break  # (a+k)(b+k) is 0
                xr = tr * pr - ti * pi
                ti, ri = div(tr * pi + ti * pr, q)
                tr, rr = div(xr, q)
                sr += tr
                si += ti
                try:
                    ratio = math.hypot(pr, pi) / q
                except OverflowError:  # p is past the float range, p / q not
                    ratio = math.hypot(pr / q, pi / q)
                err = err * ratio + (1.5 if rr or ri else 0.0)
                bound += err
                pr += pr1
                pr1 += pr2
                pr2 += f3
                pi += pi1
                pi1 += pi2
                q += q1
                q1 += q2
                q2 += f3
    except OverflowError:  # a ratio past the float range
        bound = math.inf
    if not math.isfinite(bound):
        raise PrecisionUnavailableError(
            "the partial sum's rounding bound is past the float range")
    return sr, si, bound


def _exact_sum(ar, ai, br, bi, cr, ci, d, n: int) -> tuple:
    """(sr, si, q): S_n = (sr + i si) / q exactly, q > 0.

    S_n = 1 + r_0 (1 + r_1 (... (1 + r_{n-2}))), from the innermost ratio
    out.  With the parameters integers over the common denominator d and
    x = d k, r_k = (A + x)(B + x) conj(C + x) / (|C + x|^2 d (k + 1)) for
    A = d a, B = d b and C = d c.
    """
    sr, si, q = 1, 0, 1
    for k in reversed(range(n - 1)):
        x = d * k
        xa, xb, xc = ar + x, br + x, cr + x
        ur, ui = xa * xb - ai * bi, xa * bi + ai * xb
        pr, pi = ur * xc + ui * ci, ui * xc - ur * ci
        q *= (xc * xc + ci * ci) * d * (k + 1)
        sr, si = q + pr * sr - pi * si, pr * si + pi * sr
    return sr, si, q


def _partial_sum(a, b, c, n: int, digits: int):
    """S_n at exact (re, im) parameters, to digits plus the guard digits.

    Sums in fixed point until a pass's bound proves the working precision.
    The bound in ulps hardly moves with the scale, so a retry adds the bits
    the last pass fell short plus a margin, at least doubling the extra bits.
    The result is the proven sum rounded once to the working precision.
    Where no pass proves it, as for a sum that is exactly 0 (whose digits no
    scale proves unless every step divides exactly), a sum of at most
    _MAX_EXACT_N terms is summed exactly and rounded once.
    """
    import mpmath as mp
    from mpmath.libmp import (dps_to_prec, from_man_exp, from_rational,
                              round_nearest)
    ratios = [p.as_integer_ratio() for p in a + b + c]
    (cr, cd), (ci, _) = ratios[4:]
    if ci == 0 and cd == 1 and 0 <= -cr < n - 1:
        raise InvalidParameterError(
            f"series coefficient pole: c + {-cr} = 0 with c = {cr}")
    d = math.lcm(*(den for _, den in ratios))
    ints = [num * (d // den) for num, den in ratios]
    work = dps_to_prec(digits + _GUARD_DIGITS)
    extra = 0
    while True:
        scale = work + 20 + 2 * n.bit_length() + extra
        sr, si, bound = _fixed_point_pass(*ints, d, n, scale)
        size = max(abs(sr), abs(si)).bit_length()
        shortfall = math.ceil(bound).bit_length() + work - size
        if bound == 0 or shortfall < 0:
            return mp.mp.make_mpc(
                (from_man_exp(sr, -scale, work, round_nearest),
                 from_man_exp(si, -scale, work, round_nearest)))
        extra += max(shortfall + 32, extra)
        if extra > _MAX_EXTRA_BITS:
            if n <= _MAX_EXACT_N:
                sr, si, q = _exact_sum(*ints, d, n)
                return mp.mp.make_mpc(
                    (from_rational(sr, q, work, round_nearest),
                     from_rational(si, q, work, round_nearest)))
            raise PrecisionUnavailableError(
                f"{_MAX_EXTRA_BITS} extra bits do not prove {digits} "
                "digits of the partial sum")


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
    """The Landau constant G_n = S_{n+1}(1/2, 1/2; 1) for 0 <= n with
    n + 1 within partial_sum_ref's limit."""
    digits = _checked_digits(digits)
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 0:
        raise InvalidParameterError(f"n must be >= 0, got {n!r}")
    if n + 1 > _MAX_PARTIAL_SUM_N:
        raise InvalidParameterError(
            f"n + 1 = {n + 1} exceeds the partial_sum limit "
            f"{_MAX_PARTIAL_SUM_N}")
    half = (0.5, 0)  # exact: its ratios are (1, 2) and (0, 1)
    value = _partial_sum(half, half, (1, 0), int(n) + 1, digits)
    return OracleValue(value=value, digits=digits)


def _dyadic(part) -> tuple[int, int]:
    """(man, exp) with an mpmath mpf tuple's value man 2**exp exactly."""
    sign, man, exp, _ = part
    if not man and exp:
        raise InvalidParameterError("the reference value must be finite")
    return (-int(man) if sign else int(man)), exp


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for integers num >= 0 and den > 0, rounded once to
    the nearest float (inf past the float range).

    isqrt takes the root of num / den scaled by 4**k, k chosen so that the
    integer root has at least _ROOT_BITS bits.  An inexact root gets its
    last bit set, far below a float's: that keeps it on the true root's side
    of every midpoint between floats, so the one rounding of root / 2**k
    goes the way the true root's would.
    """
    if not num:
        return 0.0
    k = max(0, (2 * _ROOT_BITS + 2 - num.bit_length() + den.bit_length()) // 2)
    y, rem = divmod(num << 2 * k, den)
    root = math.isqrt(y)
    if rem or root * root != y:
        root |= 1
    try:
        return root / (1 << k)
    except OverflowError:
        return math.inf


def compare(x: Number, ref: OracleValue) -> ErrorReport:
    """Absolute and relative deviation of x from the reference value, each
    the exact deviation rounded once to a float."""
    (xr, xrd), (xi, xid) = (p.as_integer_ratio() for p in _exact(x, "x"))
    (rr, rre), (ri, rie) = map(_dyadic, ref.value._mpc_)
    # x and ref as integers over the common denominator d 2**shift
    d = math.lcm(xrd, xid)
    shift = max(0, -rre, -rie)
    rr = rr * d << rre + shift
    ri = ri * d << rie + shift
    dr = (xr * (d // xrd) << shift) - rr
    di = (xi * (d // xid) << shift) - ri
    err2 = dr * dr + di * di
    mag2 = rr * rr + ri * ri
    if mag2:
        rel = _sqrt_ratio(err2, mag2)
    else:
        rel = 0.0 if err2 == 0 else math.inf
    return ErrorReport(
        abs_err=_sqrt_ratio(err2, (d << shift) ** 2),
        rel_err=rel,
        reference_precision=ref.digits,
    )
