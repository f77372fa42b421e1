"""Landau constants G_n by independent routes.

G_n is the n-th partial sum of the squared central-binomial weights
sum_{k<=n} (Gamma(k+1/2)/(k! sqrt(pi)))^2, equivalently S_{n+1}(1/2,1/2;1).
Besides the direct sum this module evaluates two convergent series (a
digamma-weighted one and a single-sum variant), the theorem-grade rearranged
form with an a-priori remainder bound, and three fixed-depth asymptotic
estimates.

landau_watson and landau_ck answer by the direct sum below index 14 and run
their series at rel_tol 1e-15 from there, the first index where the engine's
predicted count, scaled by 1 + max(|a|, |b|) = 3/2, is at most the index for
both.  There they take at most 35 (watson) and 45 (ck) terms.

Indexing: landau_direct / landau_watson / landau_ck / the fixed asymptotics
take the index of the constant itself.  landau_theorem3 and landau_asymptotic
take the partial-sum index and estimate the constant one below it; the CLI
converts so that all methods answer for the same constant.

landau_watson_asymptotic(n) is landau_nemes(n, 1.0, 2), and c_0(1/2, 1/2)
is the closed form (gamma + 4 log 2) / pi that landau_ck and landau_nemes
write out.  One specialisation stays on purpose: landau_direct is
sum_direct(1/2, 1/2, 1, n + 1) at two fifths to two thirds of its cost (1.05
against 2.6 us at index 5, 143 against 228 us at 1,000; Python 3.11,
timeit), and at index 10^6 it errs by 9.5e-15 relative against 2.5e-14.

A value outside the double range is a DomainError, as everywhere in the
package; landau_theorem3 reports a bound below it as 5e-324.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from numbers import Real

from . import coeffs
from ._series import _DEFAULT_TOL, _majorant, _run, sum_psi_kernel
from .complexfn import EULER_GAMMA, _check_index, digamma, exp_log
from .errors import DomainError, InvalidParameterError
from .params import _log_seq_ratios

__all__ = [
    "landau_direct",
    "landau_watson",
    "landau_ck",
    "landau_theorem3",
    "landau_asymptotic",
    "landau_watson_asymptotic",
    "landau_nemes",
]

_MAX_DIRECT_N = 1_000_000
_PI = math.pi
_LOG4 = 4.0 * math.log(2.0)
_FIRST_SERIES_INDEX = 14
# c_0(1/2, 1/2) = psi(1) - 2 psi(1/2) over Gamma(1/2)^2 = pi
_C0_HALF = (EULER_GAMMA + _LOG4) / _PI


@functools.cache
def _sigma_half(M: int) -> tuple:
    """sigma_1..sigma_{M-1} at (1/2, 1/2) as floats, the table of
    landau_theorem3 at order M: summed in exact fractions on first use."""
    if M < 2:
        return ()
    half = Fraction(1, 2)
    return tuple(map(float, coeffs.sigma_coeffs(half, half, M - 1).values))


def landau_direct(n: int) -> float:
    """Direct sum of the defining series; exact up to summation roundoff."""
    _check_index(n, minimum=0, maximum=_MAX_DIRECT_N)
    # the k = 0 term, 1, starts the sum
    total = t = 1.0
    comp = 0.0
    k = 0.0
    for _ in range(n):
        k += 1.0
        r = (k - 0.5) / k
        t *= r * r
        fresh = total + t
        if abs(total) >= t:
            comp += (total - fresh) + t
        else:
            comp += (t - fresh) + total
        total = fresh
    return total + comp


def landau_watson(n: int) -> float:
    """Digamma-weighted convergent series for G_n.

    Prefactor Gamma(n+3/2)^2/(pi Gamma(n+1) Gamma(n+2)) times the
    four-digamma kernel at (1/2, 1/2, n+2), whose terms decay like k^-(n+3).
    Where that needs more terms than the index, the direct sum answers.
    """
    _check_index(n, minimum=0)
    if n < _FIRST_SERIES_INDEX:
        return landau_direct(n)
    ker = sum_psi_kernel(0.5, 0.5, n + 2.0)
    pref = exp_log(_log_seq_ratios(n + 1.0, 0.5, 0.5, 1.0)[0]).real / _PI
    return pref * ker.value.real


def landau_ck(n: int) -> float:
    """Single-sum convergent form: digamma head minus a weighted tail.

    (1/pi)(psi(n+3/2) + gamma + 4 log 2) minus (1/pi) sum_{k>=1}
    (1/2)_k^2 / (k k! (n+3/2)_k), whose terms decay like k^-(n+5/2).  Where
    that needs more terms than the index, the direct sum answers.
    """
    _check_index(n, minimum=0)
    if n < _FIRST_SERIES_INDEX:
        return landau_direct(n)
    w = n + 1.5
    t = 0.25 / w

    def step(k: float) -> tuple:
        nonlocal t
        t = t * (k + 0.5) ** 2 * k / ((k + 1.0) ** 2 * (w + k))
        return t, t

    res = _run(step, _DEFAULT_TOL, 1, t, t,
               _majorant((0.5, 0.5, 0.0), (w, 1.0, 1.0)))
    head = (digamma(w).real + EULER_GAMMA + _LOG4) / _PI
    return head - res.value.real / _PI


def landau_theorem3(n: int, M: int):
    """Rearranged finite form for S_n(1/2,1/2;1) = G_{n-1}, with a bound.

    value = (1/pi) psi(n+1) + c_0 + (1/pi) sum_{r<K} (-1)^(r-1) (1/2)_r^2 /
    (r (n^2-1^2)...(n^2-r^2)) - (lambda_n/pi) sum_{k<M} (1/2)_k^2 sigma_k /
    ((n+1)_k k!), K = floor((M+1)/2).  Returns (value, error_bound); the
    bound is the a-priori remainder bound, which decays like n^(-M).
    """
    _check_index(M, "M", 1, 30)
    # remainder_bound checks n and n > M >= K, and n + 1 is no pole, so the
    # tail needs none of rearranged_tail's checks
    bound = coeffs.remainder_bound(n, M)
    value = (digamma(n + 1.0).real / _PI + _C0_HALF
             + coeffs._rearranged_tail(0.5 + 0j, 0.5 + 0j, n, M).real / _PI)
    if M >= 2:
        sigma = _sigma_half(M)
        lam = exp_log(_log_seq_ratios(n, 0.5, 0.5, 1.0)[0]).real
        n1 = n + 1.0
        u = 0.25 / n1
        ksum = u * sigma[0]
        k = 0.0
        for sig in sigma[1:]:
            k += 1.0
            u = u * (k + 0.5) ** 2 / ((n1 + k) * (k + 1.0))
            ksum += u * sig
        value -= lam * ksum / _PI
    return value, bound


def landau_asymptotic(n: int, K: int) -> float:
    """Inverse-power estimate of S_n(1/2,1/2;1) = G_{n-1}, depth K <= 6."""
    _check_index(n)
    _check_index(K, "K", 0, 6)
    return _asymptotic(coeffs._DOUBLE, n, K, _C0_HALF)


def _asymptotic(ns: coeffs._Arith, n: int, K: int, c0):
    # psi(n+1)/pi + c0 + sum_{k<=K} (-1)^k C_k / (pi n^k), in the arithmetic
    # ns, where c0 is c_0(1/2, 1/2) in ns; the C_k have power-of-two
    # denominators.
    total = ns.digamma(ns.real(n) + 1).real / ns.pi + c0
    for k, ck in enumerate(coeffs.c_coeffs().values[:K], start=1):
        total += ((-1) ** k * (ns.real(ck.numerator) / ck.denominator)
                  / (ns.pi * coeffs._power(ns.real(n), k)))
    return total


def landau_watson_asymptotic(n: int) -> float:
    """Three-term log estimate of G_n, landau_nemes(n, 1.0, 2); remainder is
    O(n^-3)."""
    return landau_nemes(n, 1.0, 2)


def landau_nemes(n: int, h: float = 1.0, K: int = 3) -> float:
    """Shifted log estimate of G_n with polynomial corrections g_k(h)."""
    _check_index(n, minimum=0)
    _check_index(K, "K", 0, 3)
    if type(h) is not float:
        if not isinstance(h, Real):
            raise InvalidParameterError(f"h must be a real number, got {h!r}")
        h = float(h)
    if not math.isfinite(h):
        raise InvalidParameterError(f"h must be finite, got {h!r}")
    if not 0.0 < h < 1.5:
        raise DomainError(f"h must lie in (0, 3/2), got {h!r}")
    u = n + h
    total = (math.log(u) + EULER_GAMMA + _LOG4) / _PI
    for k in range(1, K + 1):
        total -= float(coeffs.g_poly(k, h)) / (_PI * coeffs._power(u, k))
    return total
