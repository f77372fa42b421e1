"""Self-contained complex gamma-family kernel in double precision.

Provides ``log_gamma`` / ``gamma`` / ``digamma`` for complex arguments, plus
overflow-safe products of gamma ratios built on top of them
(``gamma_ratio``).  ``exp_log``, which exponentiates a sum of logs, is the
package's one range check: it refuses a result above or below the double
range with ``DomainError``.  ``_as_complex`` and ``_check_index``, the
intake checks of a parameter and of an integer, sit here below every
layer.  The implementation is deliberately free of external
special-function libraries.

One Stirling kernel, ``_stirling``, answers log Gamma or psi for Im z >=
0; the lower half plane is taken by conjugation, which makes the
conjugate-symmetry identities exact at the representation level.  Right
of Re z = -4 (``_REFLECT``) it lifts z by unit steps to Re z >= 7 (the one
lift loop) and sums the Stirling series with exact Bernoulli-number
coefficients, cut to the fewest terms the argument's size allows.  Left of
it, it reflects once (DLMF 5.5.3, 5.5.4), so no call lifts more than 11
steps, whatever -Re z is.  The pair difference log Gamma(z1) - log
Gamma(z2), ``_stirling_diff``, lifts its points through the same loop and
combines the two Stirling main terms from the exact offset z1 - z2.  A
pair left of ``_REFLECT`` reflects as a pair, by the difference of DLMF
5.5.3 at its two points, as reflecting each point alone would drop that
offset and lose eps |log Gamma| (0.8 at -1e15 + 0.5i, against a
difference of 8.7).

Real arguments take a float twin of their own: CPython specializes each
operation to the operand types it meets, and one copy serving both
arithmetics measured slower in both.  ``log_gamma`` takes its real part
from ``math.lgamma`` and its imaginary part, 0 or -pi ceil(-x), with the
sign the lift would give it.  ``_psi_real`` is the kernel's lift,
reflection and series in floats: its value is the complex pass's real part
bit for bit, and its zero imaginary part carries the input's sign.
``_stirling_diff_real``, the pair of two real arguments >= 7, takes
``math.log1p`` and ``math.log`` and may differ from the complex pass in
the last bits (by at most 4 eps of max(1, |difference|) on the tests'
sweep).

Each public function checks its input and then calls a private twin
(``_log_gamma``, ``_digamma``) that takes a finite complex argument known
to be off the poles.  The engine and ``params``, whose callers hold a
validated ``ParamSet``, call the twins directly, and ``params`` forms the
n-dependent gamma pairs with the pair kernel ``_log_gamma_diff``.
"""

from __future__ import annotations

import bisect
import cmath
import math
from typing import TYPE_CHECKING, Sequence, Union

from .errors import DomainError, InvalidParameterError, PoleError

__all__ = [
    "POLE_TOL",
    "EULER_GAMMA",
    "bernoulli_numbers",
    "nonpos_int_distance",
    "log_gamma",
    "exp_log",
    "gamma",
    "digamma",
    "gamma_ratio",
]

if TYPE_CHECKING:  # type-only, so that `import hypersum` skips fractions
    from fractions import Fraction

    Number = Union[int, float, complex, Fraction]

# Distance to a nonpositive integer below which an argument counts as a pole.
POLE_TOL = 1e-12

# Real part the recurrences lift an argument to before the Stirling series
# is summed.  At |w| >= 7 the first omitted term of the 12-term log-gamma
# series is 1.6e-18 and that of the 12-term digamma series 5.8e-18.
_ASYMPTOTIC_SHIFT = 7.0
_SERIES_TERMS = 12
# Each series stops at the fewest terms whose first omitted term is at most
# this at |w|, so large arguments take few terms (one from |w| ~ 6e4 on).
_TRUNCATION = 2.0 ** -56

# psi(1) = -EULER_GAMMA.
EULER_GAMMA = 0.57721566490153286061

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_TWO_PI = math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi

# Left of this real part log_gamma, digamma and _log_gamma_diff reflect
# (z -> 1-z) instead of lifting, so no call takes more than
# _ASYMPTOTIC_SHIFT - _REFLECT lift steps.
_REFLECT = -4.0
# exp() overflows above ~709.78 and underflows to zero below ~-745.1.
_EXP_MAX = 709.78
_EXP_MIN = -745.1

# The largest int whose float is finite: float() of any larger int raises
# OverflowError, so no index past it may reach the double routes.
_MAX_INDEX = 2 ** 1024 - 2 ** 970 - 1


def _check_index(value, name: str = "n", minimum: int = 1,
                 maximum: int = _MAX_INDEX) -> int:
    """value, when it is an int (not a bool) in minimum..maximum, by default
    the largest int whose float is finite; InvalidParameterError otherwise."""
    if (isinstance(value, int) and not isinstance(value, bool)
            and minimum <= value <= maximum):
        return value
    bounds = (f">= {minimum}" if maximum == _MAX_INDEX
              else f"in {minimum}..{maximum}")
    # not the repr of an int past the double range: hundreds of digits
    got = (f"one of {value.bit_length()} bits, past the double range"
           if isinstance(value, int) and value > _MAX_INDEX else repr(value))
    raise InvalidParameterError(f"{name} must be an integer {bounds}, got {got}")


def bernoulli_numbers(count: int) -> tuple[Fraction, ...]:
    """First ``count`` even-index Bernoulli numbers B_2, B_4, ... exactly.

    Uses the defining recurrence sum(C(m+1, j) * B_j, j=0..m) = 0 in rational
    arithmetic.  ``count`` is capped at 64; beyond that the numbers grow
    factorially and nothing in this package needs them.
    """
    from fractions import Fraction
    _check_index(count, "count", 1, 64)
    top = 2 * count
    full = [Fraction(1)]
    for m in range(1, top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * full[j]
        full.append(-acc / (m + 1))
    return tuple(full[2 * k] for k in range(1, count + 1))


def _size_matched(coeffs: tuple[float, ...], odd: int):
    """Size-matched truncations of a series with k-th term
    coeffs[k-1] / w^(2k - odd).

    Returns (radii, series).  For each count from len(coeffs) - 1 down to 1,
    series holds the first count coefficients in Horner's order, as the
    last one and a tuple of the others reversed, and radii the smallest |w|
    at which the first omitted term is at most _TRUNCATION, so radii
    increases.  The longest truncation gets radius 0, so that every |w|
    finds one.
    """
    radii, series = [], []
    for count in range(len(coeffs) - 1, 0, -1):
        # coeffs[count] is the first omitted term's coefficient
        radius = (abs(coeffs[count]) / _TRUNCATION) ** (
            1.0 / (2 * count + 2 - odd))
        radii.append(radius if series else 0.0)
        series.append((coeffs[count - 1],
                       tuple(reversed(coeffs[:count - 1]))))
    return tuple(radii), tuple(series)


# bernoulli_numbers(_SERIES_TERMS + 1), B_2 ... B_26, as exact (numerator,
# denominator) pairs, so that the import runs no rational recurrence.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
              (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
              (854513, 138), (-236364091, 2730), (8553103, 6))
# B_2k / (2k (2k-1)) for the log-gamma series, B_2k / 2k for the digamma one;
# int / int division rounds correctly, as Fraction.__float__ does.
_LOG_RADII, _LOG_SERIES = _size_matched(
    tuple(p / (q * 2 * k * (2 * k - 1))
          for k, (p, q) in enumerate(_BERNOULLI, start=1)), odd=1)
_PSI_RADII, _PSI_SERIES = _size_matched(
    tuple(p / (q * 2 * k) for k, (p, q) in enumerate(_BERNOULLI, start=1)),
    odd=0)


def _as_complex(z: Number, name: str = "z") -> complex:
    # The package's one finite-number check.  complex() takes a Fraction
    # through its __float__, the correctly rounded quotient, and would
    # parse a str as a number, so text is refused before it.
    if type(z) is complex:
        w = z
    elif isinstance(z, (str, bytes, bytearray)):
        raise InvalidParameterError(f"{name} must be a number, got {z!r}")
    else:
        w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise InvalidParameterError(f"{name} must be finite, got {w!r}")
    return w


def nonpos_int_distance(z: complex) -> float:
    """Distance from z to the nearest nonpositive integer, i.e. to the
    nearest pole of the gamma function."""
    k = round(z.real)
    if k > 0:
        return abs(z)
    return abs(z - k)


def _in_lower_half(w: complex) -> bool:
    # -0.0 counts as lower: the lift loses the zero's sign at the first
    # w += 1.0, so letting it through the upper path would pick branch-cut
    # signs inconsistently and break the conjugate pairing.
    return w.imag < 0.0 or (w.imag == 0.0 and math.copysign(1.0, w.imag) < 0.0)


def _horner(radii: tuple[float, ...], series: tuple, w: complex,
            u2: complex) -> complex:
    # The size-matched truncation |w| reaches, summed by Horner's rule in
    # u2 = 1/w^2.  Products take the complex factor on the left (the same
    # bits), where CPython multiplies without first trying float
    # multiplication.
    s, rest = series[bisect.bisect_right(radii, abs(w)) - 1]
    for c in rest:
        s = u2 * s + c
    return s


def _one_minus_exp_2pi_i(z: complex) -> complex:
    # 1 - e^(2 pi i z) = -expm1(u), u = 2 pi i f, from f = z - round(Re z),
    # which is exact and keeps the phase accurate at large |Re z|; the real
    # part expm1(Re u) cos(Im u) - 2 sin(Im u / 2)^2 cancels nothing.
    f = z - round(z.real)
    re_u, im_u = -_TWO_PI * f.imag, _TWO_PI * f.real
    half = math.sin(0.5 * im_u)
    return complex(2.0 * half * half - math.expm1(re_u) * math.cos(im_u),
                   -math.exp(re_u) * math.sin(im_u))


def _stirling(z: complex, psi: bool, lift=None):
    """psi(z) when psi, else log Gamma(z), for Im z >= 0.

    The lift is the kernel's one loop: it moves z right by unit steps until
    Re z >= _ASYMPTOTIC_SHIFT and sums 1/(z + j) for psi or log(z + j) for
    log Gamma.  Given lift, a start for the log sum, the call only lifts (z
    right of _REFLECT) and returns the lifted point and lift plus the log
    sum: the pair difference lifts its two points so.

    log Gamma is the principal branch.  Each lift step stays off the
    negative real axis when Im z != 0, so summing principal logs adds no
    2 pi i jumps; for real negative z the +i pi of each negative factor
    encodes the sign of Gamma.
    """
    if z.real < _REFLECT:
        # 1 - conj z lies right of 5, in the upper half plane with z, so
        # it lifts at most two steps.  psi is psi(1-z) - pi cot(pi z) (DLMF
        # 5.5.4), the cotangent taken at z - round(Re z).  log Gamma is
        # log pi - log sin(pi z) - log Gamma(1-z) (DLMF 5.5.3), with
        # log sin(pi z) = -i pi z + Log(1 - e^(2 pi i z)) - log 2 + i pi/2.
        # On Im z >= 0 this is the principal branch with no 2 pi i k term:
        # both sides are analytic there and agree at z = 1/2 (D. E. G.
        # Hare, J. Algorithms 25 (1997)).
        v = _stirling(1.0 - z.conjugate(), psi).conjugate()
        if psi:
            return v - math.pi / cmath.tan(math.pi * (z - round(z.real)))
        return (complex(_LOG_TWO_PI - math.pi * z.imag,
                        math.pi * (z.real - 0.5))
                - cmath.log(_one_minus_exp_2pi_i(z)) - v)
    w, s = z, 0.0 if lift is None else lift
    while w.real < _ASYMPTOTIC_SHIFT:
        s += 1.0 / w if psi else cmath.log(w)
        w += 1.0
    if lift is not None:
        return w, s
    log_w = cmath.log(w)
    u = 1.0 / w
    u2 = u * u
    if psi:
        return (log_w - u * 0.5
                - u2 * _horner(_PSI_RADII, _PSI_SERIES, w, u2) - s)
    return ((w - 0.5) * log_w - w + _HALF_LOG_TWO_PI
            + u * _horner(_LOG_RADII, _LOG_SERIES, w, u2) - s)


def _log1p_c(u: complex) -> complex:
    # Principal log(1+u) without the 1+u rounding loss for small |u|.
    w = 1.0 + u
    if w == 1.0:
        return u
    return cmath.log(w) * (u / (w - 1.0))


def _stirling_diff(z1: complex, z2: complex, delta: complex) -> complex:
    """log Gamma(z1) - log Gamma(z2) for Im z1, Im z2 >= 0, given delta,
    the exact z1 - z2.

    The Stirling main terms are combined as
      delta Log w2 + (w1 - 1/2) Log(w1/w2) - delta,
    which stays O(|delta| log|w|) instead of O(|w| log|w|).  A lift step
    runs only below _ASYMPTOTIC_SHIFT, where n is small and the rounding of
    n + x negligible, so delta is then taken as w1 - w2.  A pair left of
    _REFLECT is reflected as a pair, by the difference of DLMF 5.5.3 at z1
    and z2, which keeps delta exact; a pair straddling it is far apart,
    and each value is taken on its own.
    """
    shift = 0.0
    w1, w2 = z1, z2
    if w1.real < _ASYMPTOTIC_SHIFT or w2.real < _ASYMPTOTIC_SHIFT:
        if w1.real < _REFLECT and w2.real < _REFLECT:
            return (1j * math.pi * delta
                    - cmath.log(_one_minus_exp_2pi_i(z1))
                    + cmath.log(_one_minus_exp_2pi_i(z2))
                    - _stirling_diff(1.0 - z1.conjugate(),
                                     1.0 - z2.conjugate(),
                                     -delta.conjugate()).conjugate())
        if w1.real < _REFLECT or w2.real < _REFLECT:
            return _stirling(w1, False) - _stirling(w2, False)
        # shift runs from 0 down by the w1 steps' logs, then up by w2's
        w1, shift = _stirling(w1, False, 0.0)
        w2, shift = _stirling(w2, False, 0.0 - shift)
        delta = w1 - w2
    log_w2 = cmath.log(w2)
    u = delta / w2
    if abs(u) <= 0.25:
        ratio_log = _log1p_c(u)
    else:
        # well-separated arguments: no cancellation to protect against
        ratio_log = cmath.log(w1) - log_w2
    u1, u2 = 1.0 / w1, 1.0 / w2
    return (delta * log_w2
            + (w1 - 0.5) * ratio_log
            - delta
            + u1 * _horner(_LOG_RADII, _LOG_SERIES, w1, u1 * u1)
            - u2 * _horner(_LOG_RADII, _LOG_SERIES, w2, u2 * u2)
            + shift)


# The real twin, in float arithmetic: the same operations as the complex
# kernel above on a zero imaginary part.

def _horner_real(radii: tuple[float, ...], series: tuple, x: float,
                 u2: float) -> float:
    # _horner in float arithmetic
    s, rest = series[bisect.bisect_right(radii, x) - 1]
    for c in rest:
        s = s * u2 + c
    return s


def _psi_real(x: float) -> float:
    # _stirling's psi for real x off the poles: one reflection, one lift
    if x < _REFLECT:
        return (_psi_real(1.0 - x)
                - math.pi / math.tan(math.pi * (x - round(x))))
    p = 0.0
    while x < _ASYMPTOTIC_SHIFT:
        p += 1.0 / x
        x += 1.0
    u = 1.0 / x
    u2 = u * u
    return (math.log(x) - 0.5 * u
            - _horner_real(_PSI_RADII, _PSI_SERIES, x, u2) * u2 - p)


def _stirling_diff_real(x1: float, x2: float, delta: float) -> float:
    # _stirling_diff for x1, x2 >= _ASYMPTOTIC_SHIFT, which lift no step,
    # with math.log1p and math.log for _log1p_c and cmath.log
    log_x2 = math.log(x2)
    u = delta / x2
    if abs(u) <= 0.25:
        ratio_log = math.log1p(u)
    else:
        ratio_log = math.log(x1) - log_x2
    u1, u2 = 1.0 / x1, 1.0 / x2
    return (delta * log_x2
            + (x1 - 0.5) * ratio_log
            - delta
            + _horner_real(_LOG_RADII, _LOG_SERIES, x1, u1 * u1) * u1
            - _horner_real(_LOG_RADII, _LOG_SERIES, x2, u2 * u2) * u2)


def _off_pole(z: Number, what: str) -> complex:
    """z as a finite complex number, or PoleError (naming ``what``) within
    ``POLE_TOL`` of a nonpositive integer."""
    w = _as_complex(z)
    if nonpos_int_distance(w) <= POLE_TOL:
        raise PoleError(f"{what} pole at z = {w!r}")
    return w


def log_gamma(z: Number) -> complex:
    """Principal branch of log Gamma(z) for complex z off the poles.

    Raises PoleError within ``POLE_TOL`` of a nonpositive integer.
    """
    return _log_gamma(_off_pole(z, "log_gamma"))


def _log_gamma(w: complex) -> complex:
    # log_gamma without its checks, for a finite complex w off the poles.
    if w.imag == 0.0:
        x = w.real
        try:
            re = math.lgamma(x)
        except OverflowError:
            pass  # x above ~2.6e305: the lift below gives inf
        else:
            # The imaginary part of the lift below: for x > 0 the input's
            # signed zero; for x < 0, log Gamma(x) = log Gamma(x+k) -
            # sum_j log(x+j), and each of the ceil(-x) negative factors
            # gives -i pi, conjugated for a -0.0 input.
            if x > 0.0:
                im = w.imag
            else:
                im = math.copysign(math.pi * math.ceil(-x), -w.imag)
            return complex(re, im)
    if w.imag > 0.0 or not _in_lower_half(w):
        return _stirling(w, False)
    return _stirling(w.conjugate(), False).conjugate()


def exp_log(lg: complex, what: str = "gamma_ratio") -> complex:
    """exp(lg) for a sum of logs, refusing a result outside the double range
    with a DomainError that names ``what``."""
    if lg.real > _EXP_MAX:
        raise DomainError(f"{what} lies above the double range: "
                          f"Re log = {lg.real:.6g}")
    if lg.real < _EXP_MIN:
        raise DomainError(f"{what} lies below the double range: "
                          f"Re log = {lg.real:.6g}")
    return cmath.exp(lg)


def gamma(z: Number) -> complex:
    """Gamma(z) = exp(log_gamma(z)); DomainError outside the double range."""
    return exp_log(log_gamma(z), "gamma")


def digamma(z: Number) -> complex:
    """psi(z), the logarithmic derivative of gamma, for complex z off the poles."""
    return _digamma(_off_pole(z, "digamma"))


def _digamma(w: complex) -> complex:
    # digamma without its checks, for a finite complex w off the poles.  A
    # real w runs in real arithmetic and keeps its zero's sign, so that the
    # two sides of the axis stay conjugate.
    if w.imag == 0.0:
        return complex(_psi_real(w.real), w.imag)
    if w.imag < 0.0:
        return _stirling(w.conjugate(), True).conjugate()
    return _stirling(w, True)


def _log_gamma_diff(n: float, x1: complex, x2: complex) -> complex:
    # log_gamma(n+x1) - log_gamma(n+x2) for real n (n = 0 takes x1 and x2 as
    # they are), n + x1 and n + x2 off the poles.  The difference of the
    # Stirling main terms is formed from the exact offsets x1 - x2, so the
    # error scales with |x1 - x2| log n rather than with n log n.  Two real
    # arguments right of the lift target run in real arithmetic; the zero
    # imaginary part is then z2's, the sign the half-plane rule below gives.
    # Half-planes as in log_gamma: an imaginary part of -0.0 counts as lower.
    # Its sign matters only on the negative real axis, the cut of log, so a
    # positive real argument joins its partner's half-plane.
    z1, z2 = (x1 + n, x2 + n) if n else (x1, x2)
    if (not (z1.imag or z2.imag) and z1.real >= _ASYMPTOTIC_SHIFT
            and z2.real >= _ASYMPTOTIC_SHIFT):
        return complex(_stirling_diff_real(z1.real, z2.real,
                                           x1.real - x2.real), z2.imag)
    lower1, lower2 = _in_lower_half(z1), _in_lower_half(z2)
    if lower1 != lower2:
        if z1.imag == 0.0 and z1.real > 0.0:
            lower1 = lower2
        elif z2.imag == 0.0 and z2.real > 0.0:
            lower2 = lower1
    if not (lower1 or lower2):
        return _stirling_diff(z1, z2, x1 - x2)
    if lower1 and lower2:
        return _stirling_diff(z1.conjugate(), z2.conjugate(),
                              x1.conjugate() - x2.conjugate()).conjugate()
    # Opposite half-planes: reflect the lower argument up and patch with the
    # imaginary part, which stays O(|Im z| log|z|) while the real part (the
    # piece that would lose precision to cancellation) is shared exactly:
    # log_gamma(conj z) = conj log_gamma(z), so only 2i Im log_gamma moves.
    if lower1:
        d = _stirling_diff(z1.conjugate(), z2, x1.conjugate() - x2)
        return d.conjugate() - 2.0j * _stirling(z2, False).imag
    d = _stirling_diff(z2.conjugate(), z1, x2.conjugate() - x1)
    return 2.0j * _stirling(z1, False).imag - d.conjugate()


def gamma_ratio(numerators: Sequence[Number], denominators: Sequence[Number]) -> complex:
    """prod Gamma(numerators) / prod Gamma(denominators) in log space.

    Arguments are paired off numerator-against-denominator through
    _log_gamma_diff at n = 0; the unpaired rest take one log_gamma each.  For
    the arguments it is given, a ratio like Gamma(n+a)/Gamma(n+b) is
    accurate to 3 eps times max(1, |log of the ratio|) relative (measured
    against mpmath with n up to 1e6 and n+a, n+b exactly representable).
    An argument formed as n+a in double precision has already lost the low
    bits of a, up to 8e-10 relative at n = 1e6: ratios with an n-dependent
    argument go through _log_gamma_diff with their exact offsets instead.
    A ratio outside the double range is a DomainError.
    """
    return exp_log(_log_gamma_ratio(numerators, denominators))


def _log_gamma_ratio(numerators, denominators) -> complex:
    # gamma_ratio's log, for a caller with its own rule outside the range
    nums = [_off_pole(v, "gamma_ratio") for v in numerators]
    dens = [_off_pole(v, "gamma_ratio") for v in denominators]
    total = 0.0 + 0.0j
    paired = min(len(nums), len(dens))
    for i in range(paired):
        total += _log_gamma_diff(0, nums[i], dens[i])
    for v in nums[paired:]:
        total += _log_gamma(v)
    for v in dens[paired:]:
        total -= _log_gamma(v)
    return total
