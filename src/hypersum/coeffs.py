"""Coefficient families and rearranged / asymptotic evaluators.

Coefficients whose defining formulas are rational-in-parameters (sigma_k, the
A_k list, the g_k polynomials, the fixed C_k list) are kept exact when the
inputs are ints or Fractions and fall back to complex arithmetic otherwise.
Every numeric parameter enters through _intake, which refuses a NaN or an
infinity with InvalidParameterError, and every integer through _check_index.
The asymptotic forms at the bottom add those coefficients to the digamma
leading term, with an error decaying in inverse powers of n.  Each is written
once over an _Arith namespace and returns every depth 0..K from one pass: the
public functions run it in double and take depth K, verification in mpmath.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from typing import Union

from ._series import finite_sum
from .complexfn import (_EXP_MIN, EULER_GAMMA, POLE_TOL, _as_complex,
                        _check_index, digamma, exp_log, gamma_ratio,
                        nonpos_int_distance)
from .errors import DomainError, PoleError, Record, WrongBranchError
from .params import (NEGATIVE_INTEGER, ParamSet, _log_gamma_shift,
                     _log_seq_ratios, classify_params)

__all__ = [
    "CoefficientTable",
    "sigma_coeffs",
    "c0",
    "a_coeffs",
    "c_coeffs",
    "g_poly",
    "lambda_series",
    "remainder_bound",
    "asym_log",
    "asym_neg_int",
    "rearranged_tail",
]

Number = Union[int, float, complex, Fraction]

# Inverse-power coefficients of S_n(1/2,1/2;1) past the digamma and constant
# terms; the sum enters with alternating sign (-1)^k.
_C_LIST = (
    Fraction(3, 4),
    Fraction(7, 64),
    Fraction(-3, 128),
    Fraction(-91, 8192),
    Fraction(75, 8192),
    Fraction(641, 131072),
)

# Inverse-power coefficients of lambda_n at (1/2, 1/2), k = 1..5.
_LAMBDA_HALF = (
    Fraction(-1, 4),
    Fraction(1, 32),
    Fraction(1, 128),
    Fraction(-5, 2048),
    Fraction(-23, 8192),
)
_LAMBDA_HALF_FLOATS = tuple(map(float, _LAMBDA_HALF))

# Ascending-power coefficients of the shift polynomials g_1..g_3; a float h
# takes the float copies, since Fraction-times-float arithmetic is slow.
_G_POLYS = (
    (Fraction(-3, 4), Fraction(1)),
    (Fraction(43, 192), Fraction(-3, 4), Fraction(1, 2)),
    (Fraction(-7, 128), Fraction(43, 96), Fraction(-3, 4), Fraction(1, 3)),
)
_G_FLOATS = tuple(tuple(map(float, poly)) for poly in _G_POLYS)

# What an asymptotic form needs, in one arithmetic: gamma_ratio(numerator
# args, denominator args), digamma, Euler's constant, int -> real, pi, and
# seq_ratio(n, a, b, x) = Gamma(n+a) Gamma(n+b) / (Gamma(n) Gamma(n+x)).
# The double kernel is looked up per call, so wrappers on these module names
# (the benchmark's tracer) see the calls.
_Arith = namedtuple("_Arith", "gamma_ratio digamma euler real pi seq_ratio")
_DOUBLE = _Arith(lambda num, den: gamma_ratio(num, den),
                 lambda z: digamma(z), EULER_GAMMA, float, math.pi,
                 lambda n, a, b, x: exp_log(_log_seq_ratios(n, a, b, x)[0]))


class CoefficientTable(Record):
    """A coefficient family; values[i] is the coefficient of index k = i+1."""

    _fields = ("kind", "params", "values")

    def __init__(self, kind: str, params: tuple | None, values: tuple):
        d = self.__dict__
        d["kind"] = kind
        d["params"] = params
        d["values"] = values


def _intake(names: str, *values, exact: bool = False) -> tuple:
    """values as Fractions when exact is set and each is an int or a
    Fraction; otherwise as finite complex numbers, each NaN or infinity an
    InvalidParameterError naming its value (names holds one letter each)."""
    if exact and all(isinstance(v, (int, Fraction)) and not isinstance(v, bool)
                     for v in values):
        return tuple(map(Fraction, values))
    return tuple(map(_as_complex, values, names))


def _finite(values: tuple, kind: str) -> tuple:
    """values, double-precision coefficients, when each is finite; else
    DomainError, as the engine raises for a value past the double range."""
    if not all(map(cmath.isfinite, values)):
        raise DomainError(f"{kind} coefficients lie outside the double "
                          f"range: {values!r}")
    return values


def _power(x, k: int):
    """x ** k, or inf where a float power passes the double range: a
    correction term divided by it is then the 0 it rounds to."""
    try:
        return x ** k
    except OverflowError:
        return math.inf


def sigma_coeffs(a: Number, b: Number, K: int) -> CoefficientTable:
    """sigma_k = sum_{r<k} (1/(a+r) + 1/(b+r) - 1/(r+1)) for k = 1..K."""
    _check_index(K, "K")
    av, bv = _intake("ab", a, b, exact=True)
    values = []
    acc = av * 0
    for r in range(K):
        for v in (av + r, bv + r):
            bad = (v == 0) if isinstance(v, Fraction) else (abs(v) < POLE_TOL)
            if bad:
                raise PoleError(f"sigma coefficient pole: parameter + {r} = 0")
        acc = acc + 1 / (av + r) + 1 / (bv + r) - Fraction(1, r + 1)
        values.append(acc)
    return CoefficientTable(kind="sigma", params=(a, b), values=tuple(values))


def c0(a: Number, b: Number) -> complex:
    """(Gamma(a+b)/(Gamma(a)Gamma(b))) * (psi(1) - psi(a) - psi(b))."""
    return _c0(_DOUBLE, *_intake("ab", a, b))


def _c0(ns: _Arith, a, b):
    pref = ns.gamma_ratio([a + b], [a, b])
    return pref * (-ns.euler - ns.digamma(a) - ns.digamma(b))


def _a_formulas(a, b):
    a1 = a * b - a - b
    a2 = ((a - 1) * (b - 1) * (2 * a + 2 * b + a * b) - 4 * a * b) / 4
    a3 = ((a - 1) * (b - 1) * (6 * (2 * a * a + 2 * b * b - a - b)
          + a * b * (8 * a + 8 * b + 2 * a * b + 5))
          - 36 * a * b * (a + b - 1)) / 36
    return a1, a2, a3


def a_coeffs(a: Number, b: Number) -> CoefficientTable:
    """The three printed inverse-power coefficients of the logarithmic case."""
    av, bv = _intake("ab", a, b, exact=True)
    values = _a_formulas(av, bv)
    if not isinstance(av, Fraction):
        values = _finite(values, "A")
    return CoefficientTable(kind="A", params=(a, b), values=values)


def c_coeffs() -> CoefficientTable:
    return CoefficientTable(kind="C", params=None, values=_C_LIST)


def g_poly(k: int, h: Number):
    """Shifted-expansion polynomials g_1..g_3; exact for exact h."""
    _check_index(k, "k", 1, 3)
    # a finite float stays a float: landau_nemes takes float(g_poly(k, h))
    hv = (h if type(h) is float and math.isfinite(h)
          else _intake("h", h, exact=True)[0])
    poly = (_G_POLYS if isinstance(hv, Fraction) else _G_FLOATS)[k - 1]
    value = poly[-1]
    for coef in poly[-2::-1]:
        value = value * hv + coef
    return value


def _lambda_coeffs(a: Number, b: Number) -> tuple:
    """Inverse-power coefficients lambda_1, lambda_2, ... of lambda_n: five
    printed for the (1/2, 1/2) pair, two for a general pair."""
    av, bv = _intake("ab", a, b)
    if av == 0.5 and bv == 0.5:
        return _LAMBDA_HALF_FLOATS
    ab = av * bv
    # 0 - ab rather than -ab: a real pair keeps an imaginary part of +0.0
    return _finite((0 - ab, ab * (av + bv - 1 + ab) / 2), "lambda")


def lambda_series(a: Number, b: Number, n: int, order: int) -> complex:
    """Truncated inverse-power estimate of lambda_n.

    The (1/2, 1/2) pair has five printed coefficients; the general pair only
    two.  Orders beyond the printed depth are refused rather than silently
    extrapolated.
    """
    _check_index(n)
    table = _lambda_coeffs(a, b)
    _check_index(order, "order", 0, len(table))
    total = 1.0 + 0.0j
    for k in range(1, order + 1):
        total += table[k - 1] / _power(float(n), k)
    return total


def remainder_bound(n: int, M: int) -> float:
    """Upper bound on the truncation remainder of the order-M Landau form.

    Equals (4/pi^2) Gamma(M+1/2)^2 Gamma(n-M)/Gamma(n), which decays like
    n^(-M); see the scaling check bound(2n,M)/bound(n,M) -> 2^(-M).  A bound
    below the double range is reported as the smallest positive double,
    which still bounds the remainder; one above it is a DomainError.
    """
    _check_index(n)
    _check_index(M, "M")
    if n <= M:
        raise DomainError(f"need n > M, got n = {n}, M = {M}")
    # Gamma(n-M)/Gamma(n) from the exact offset -M: n - M and n rounded to
    # double apart lose it past 2^53
    half = math.lgamma(M + 0.5)
    lg = _log_gamma_shift(n, complex(-M)).real + half + half
    if lg < _EXP_MIN:
        return 5e-324
    # max: a bound at the range's edge can round to 0 in the last product
    return max(4.0 / math.pi ** 2 * exp_log(lg, "remainder_bound").real,
               5e-324)


def _a_corrections(ns: _Arith, a, b, n: int, K: int, acc) -> list:
    # acc + sum_{k<=j} (-1)^(k-1) A_k(a,b) / n^k for each depth j = 0..K
    A, sums = _a_formulas(a, b), [acc]
    for k in range(1, K + 1):
        acc += (-1) ** (k - 1) * A[k - 1] / _power(ns.real(n), k)
        sums.append(acc)
    return sums


def asym_log(a: Number, b: Number, n: int, K: int) -> complex:
    """Inverse-power estimate of the partial sum in the case c = a + b.

    (Gamma(a+b)/(Gamma(a)Gamma(b))) psi(n+a+b) + c_0(a,b)
    + (Gamma(a+b)/(Gamma(a)Gamma(b))) sum_{k<=K} (-1)^(k-1) A_k / n^k.
    """
    _check_index(n)
    _check_index(K, "K", 0, 3)  # three A_k are printed
    return _asym_log(_DOUBLE, *_intake("ab", a, b), n, K)[K]


def _asym_log(ns: _Arith, a, b, n: int, K: int) -> list:
    pref = ns.gamma_ratio([a + b], [a, b])  # c_0 as in _c0, on this pref
    head = (pref * ns.digamma(n + a + b)
            + pref * (-ns.euler - ns.digamma(a) - ns.digamma(b)))
    return [head + pref * corr for corr in _a_corrections(ns, a, b, n, K, 0j)]


def asym_neg_int(p: ParamSet, n: int, K: int) -> complex:
    """Inverse-power estimate of the partial sum when s = -m.

    Finite inverse-factorial sum plus ((-1)^m/m!) Gamma(c)/(Gamma(c-a)Gamma(c-b))
    times the logarithmic bracket psi(n+a+b) + psi(1) - psi(a) - psi(b)
    + sum (-1)^(k-1) A_k/n^k.  The bracket's constant is psi(1)-psi(a)-psi(b),
    i.e. c_0(a,b) carried over with the prefactor Gamma(a)Gamma(b)/Gamma(a+b).
    """
    _check_index(n)
    _check_index(K, "K", 0, 3)
    cls = classify_params(p)
    if cls.kind != NEGATIVE_INTEGER:
        raise WrongBranchError(
            f"asym_neg_int needs a nondegenerate negative-integer excess, "
            f"got {cls.kind}"
        )
    return _asym_neg_int(_DOUBLE, p.a, p.b, p.c, n, cls.m, K)[K]


def _asym_neg_int(ns: _Arith, a, b, c, n: int, m: int, K: int) -> list:
    finite, _ = finite_sum(c - a, c - b, n + c, 1 - m, m)
    first = finite * ns.seq_ratio(n, a, b, c) * ns.gamma_ratio([c], [a, b]) / m
    bracket = ns.digamma(n + a + b) - ns.euler - ns.digamma(a) - ns.digamma(b)
    g = (-1.0 if m % 2 else 1.0) * ns.gamma_ratio([c], [c - a, c - b, m + 1])
    return [first + g * br for br in _a_corrections(ns, a, b, n, K, bracket)]


def rearranged_tail(a: Number, b: Number, n: int, M: int) -> complex:
    """Single-sum form of the double tail sum, to relative O(n^(-M-1)):

    sum_{r=1}^{K-1} (-1)^(r-1) (a)_r (b)_r / (r (n+a+b)_r (n-1)...(n-r)),
    K = floor((M+1)/2).  At (1/2, 1/2) the denominator products collapse to
    (n^2-1^2)...(n^2-r^2).
    """
    _check_index(n)
    _check_index(M, "M")
    K = (M + 1) // 2
    if n <= K:
        raise DomainError(f"need n > K = {K}, got n = {n}")
    av, bv = _intake("ab", a, b)
    w = n + av + bv
    # (w)_r for r < K vanishes at w = 0, -1, ..., 2 - K
    if nonpos_int_distance(w) <= POLE_TOL and round(w.real) > 1 - K:
        raise PoleError(f"(n+a+b)_r pole: n + a + b = {w!r}")
    return _rearranged_tail(av, bv, n, M)


def _rearranged_tail(av: complex, bv: complex, n: int, M: int) -> complex:
    # rearranged_tail past its checks: needs n > K and n + a + b off the
    # poles of (n+a+b)_r, r < K
    K = (M + 1) // 2
    w = n + av + bv
    total = 0.0 + 0.0j
    poch = 1.0 + 0.0j      # (a)_r (b)_r / (n+a+b)_r
    falling = 1.0          # (n-1)(n-2)...(n-r)
    for r in range(1, K):
        poch = poch * (av + r - 1) * (bv + r - 1) / (w + r - 1)
        falling *= n - r
        total += (-1) ** (r - 1) * poch / (r * falling)
    return total
