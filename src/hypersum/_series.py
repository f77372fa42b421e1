"""Tail-controlled summation of the package's convergent series.

The terms of every series here are t_j = h_j beta_j.  The ratio
h_{j+1}/h_j = prod (x + j) / prod (y + j) is fixed by the parameters, and
beta_j is 1 or a sum of digamma differences psi(x + j) - psi(y + j).  So
_majorant bounds the omitted tail from the parameters alone.  For j >= k
and k + Re x > 0, |x + j| <= j + Re x + (Im x)^2 / (2 (k + Re x)), and
|y + j| >= j + Re y once k + Re y > 0.  The ratio is then at most one
Gauss ratio (j + X)/(j + Y), whose tail sums in closed form:
sum_{j>k} |h_j| <= |h_k| (k + X)/(Y - X - 1), infinite while
Y - X - 1 <= 0.  A digamma bracket is bounded by
|psi(x + J) - psi(y + J)| <= |x - y| log1p(D/(J + m))/D, with
D = |Re x - Re y| and m = min(Re x, Re y) - 1, or |x - y|/(J + m) at D = 0.
Accumulation is compensated: each addition's exact rounding error comes
from Knuth's TwoSum and is carried in a second sum, which keeps the
roundoff floor at ~eps times the peak term magnitude rather than eps times
the term count.  CPython adds complex numbers one component at a time, so
on complex terms this is one TwoSum per component.  The loops never split
a term into parts, so they run unchanged on floats: when every parameter's
imaginary part is zero, sum_direct, the 3F2 sum and the psi kernel pass
the real parts, and the real part of each complex product and quotient
then rounds exactly as the float operation does, so the bits are the same.
The loops count k in a float, since CPython specialises float + float but
not float + int; an int below 2**53 converts to a float exactly, so x + k
rounds as it would with an int k.  Caps and terms_used stay ints.

Stop rule: the first k whose proven tail bound is at most
rel_tol * |partial sum|.  That bound is the tail part of est_error.  Every
kernel and _run take rel_tol and max_terms as one Tolerance, checked once.
The finite sums of the integer-excess forms stop at max_terms in one place,
finite_sum, which refuses a longer sum before summing it.

For small n the decay, k^-(n+1) or faster, is too slow to pay:
predicted_terms gives the count such a series needs before it runs, and
sum_direct adds the n terms of the partial sum itself; the engine prices
the two ways from that count.
"""

from __future__ import annotations

import cmath
import math

from .complexfn import (EULER_GAMMA, POLE_TOL, _check_index, _digamma,
                        _off_pole, nonpos_int_distance)
from .errors import (DivergentSeriesError, DomainError, InvalidParameterError,
                     Record)

__all__ = ["SeriesResult", "Tolerance", "sum_hyp3f2", "sum_psi_kernel",
           "sum_alt_kernel", "sum_direct", "predicted_terms"]

_EPS = 2.0 ** -52


class SeriesResult(Record):
    _fields = ("value", "terms_used", "est_error", "hit_max")

    def __init__(self, value: complex, terms_used: int, est_error: float,
                 hit_max: bool):
        d = self.__dict__
        d["value"] = value
        d["terms_used"] = terms_used
        d["est_error"] = est_error
        d["hit_max"] = hit_max


class Tolerance(Record):
    """Truncation control: target relative term size and a hard term cap,
    checked when built: rel_tol in (0, 1), max_terms an integer >= 1."""

    _fields = ("rel_tol", "max_terms")

    def __init__(self, rel_tol: float = 1e-15, max_terms: int = 1_000_000):
        if not 0.0 < rel_tol < 1.0:
            raise InvalidParameterError(
                f"rel_tol must lie in (0, 1), got {rel_tol!r}")
        d = self.__dict__
        d["rel_tol"] = rel_tol
        d["max_terms"] = _check_index(max_terms, "max_terms")


_DEFAULT_TOL = Tolerance()


def _estimate(tail: float, peak: float, drift: float) -> float:
    # the proven tail bound; compensated accumulation leaves ~eps * peak;
    # recurrence drift on term k grows like eps * k, so drift = sum |t_k| * k
    return tail + 4.0 * _EPS * peak + 8.0 * _EPS * drift


def predicted_terms(decay: float, rel_tol: float) -> float:
    """Terms a series decaying like k^(-decay) needs to reach rel_tol.

    The tail after k terms is ~k^(1-decay) relative to the leading term, so
    the count is rel_tol^(-1/(decay-1)).  Closed form, no summing; callers
    scale it by the size of the parameters that delay the decay.
    """
    return rel_tol ** (-1.0 / (decay - 1.0))


def sum_direct(a, b, c, n: int) -> SeriesResult:
    """The first n terms of Sum_k (a)_k (b)_k / ((c)_k k!), i.e. S_n itself.

    The sum is finite, so there is no tail; est_error is the roundoff part
    of the series estimate.  Callers guarantee no (c)_k vanishes.  Raises
    DomainError when a term, the sum or its estimate overflows the double
    range.
    """
    value, est = _sum_direct(a, b, c, n)
    return SeriesResult(value=value, terms_used=n, est_error=est,
                        hit_max=False)


def _sum_direct(a: complex, b: complex, c: complex, n: int) -> tuple:
    # sum_direct without its record: (value, est_error)
    if not (a.imag or b.imag or c.imag):
        a, b, c = a.real, b.real, c.real
    t = total = 1.0
    comp = 0.0
    peak = 1.0
    drift = 0.0
    k = 0.0
    for _ in range(n - 1):
        t = t * (a + k) * (b + k) / ((c + k) * (k + 1.0))
        u = total + t
        v = u - total
        comp += (total - (u - v)) + (t - v)
        total = u
        t_abs = abs(t)
        if t_abs > peak:
            peak = t_abs
        k += 1.0
        drift += t_abs * k
    value = complex(total + comp)
    est = _estimate(0.0, peak, drift)
    if not (cmath.isfinite(value) and math.isfinite(est)):
        raise DomainError("S_n or a term of it lies outside the double "
                          "range: the direct sum overflowed")
    return value, est


def finite_sum(x, y, u, v, count: int, tol: Tolerance = _DEFAULT_TOL):
    """Sum_{k<count} t_k and Sum_{k<count} |t_k| for the terminating
    t_k = (x)_k (y)_k / ((u)_k (v)_k) of the integer-excess branches, in
    double precision or in mpmath, which takes the float counter exactly.

    Every finite sum of the package stops here at tol.max_terms: a count
    above it raises DomainError before any term is summed.
    """
    if count > tol.max_terms:
        raise DomainError(f"the finite sum has {count} terms, more than "
                          f"max_terms = {tol.max_terms}")
    term = 1.0 + 0.0j
    total = term
    absum = 1.0
    k = 0.0
    for _ in range(count - 1):
        term = term * (x + k) * (y + k) / ((u + k) * (v + k))
        total += term
        absum += abs(term)
        k += 1.0
    return total, absum


def _majorant(nums, dens, brackets=(), vanishing=False):
    """Proven bound on the omitted tail of a series of terms t_j = h_j beta_j.

    h_{j+1}/h_j = prod (nums[i] + j) / (dens[i] + j), each numerator paired
    with the denominator in its place; dens[0] stays in the Gauss ratio, so
    the bound is tightest with the largest denominator there.  Without
    brackets beta_j is 1.  With brackets ((x, y), ...), beta_j is the sum
    of psi(x + j) - psi(y + j) over them, plus a constant unless vanishing.

    Returns (first, floor, excess, bound).  For k >= first,
    bound(k, |t_k|, |h_k|) >= sum_{j>k} |t_j|.  It is also at least
    |t_k| (k + floor) / excess, the test _run makes before calling it.

    A bracket's move: for j > k, psi(x + j) - psi(y + j) differs from its
    value at k, and from its limit 0, by a part of
    sum_{i>=k} (x - y)/((x + i)(y + i)).  With p = Re x, q = Re y and
    k + m > 0, m = min(p, q) - 1, each |x + i| >= i + p > 0, so that is at
    most |x - y| sum_{i>=k} 1/((i + p)(i + q)).  The summand decreases in
    i, so each term is at most its integral over [i - 1, i], and the sum
    is at most the integral of 1/((t + p)(t + q)) from k - 1 to infinity,
    log1p(D/(k + m))/D with D = |p - q|, or 1/(k + m) at D = 0.
    """
    pairs = zip(nums, dens)
    x, y = next(pairs)
    x0, eta0, y1 = x.real, 0.5 * x.imag * x.imag, y.real
    floor = x0
    # low: the least real part the validity conditions name
    low = min(x0, y1)
    rest = []
    for x, y in pairs:
        if x == y:
            continue  # a factor of exactly 1, as (1 + j)/(1 + j) in 3F2
        xr, yr = x.real, y.real
        rest.append((xr, 0.5 * x.imag * x.imag, yr))
        floor += xr - yr
        low = min(low, xr, yr)
    widths = [(abs(x - y), abs(x.real - y.real), min(x.real, y.real) - 1.0)
              for x, y in brackets]
    for _, _, m in widths:
        low = min(low, m)

    def bound(k: int, t_abs: float, h_abs: float) -> float:
        # (j + x)/(j + y1) bounds the ratio folded so far, for all j >= k;
        # (j+x)(j+xi) / ((j+y1)(j+yi))
        #     = (j + x + xi - yi)/(j + y1) + e / ((j+y1)(j+yi)),
        # with e = (yi - xi)(yi - x), and 1/(j + yi) <= 1/(k + yi)
        x = x0 + eta0 / (k + x0)
        for xr, eta, yr in rest:
            xi = xr + eta / (k + xr)
            e = (yr - xi) * (yr - x)
            x += xi - yr
            if e > 0.0:
                x += e / (k + yr)
        gap = y1 - x - 1.0
        if gap <= 0.0:
            return math.inf
        # sup_{j>k} |beta_j|: the digamma differences move from beta_k,
        # or from 0, by at most the bound in the docstring
        bracket = 0.0 if vanishing else t_abs
        for width, d, m in widths:
            if d:
                bracket += h_abs * width * math.log1p(d / (k + m)) / d
            else:
                bracket += h_abs * width / (k + m)
        return bracket * (k + x) / gap

    return math.floor(-low) + 1, floor, y1 - floor - 1.0, bound


def _unproven(first: int, last: int, tol: Tolerance) -> str:
    return (f"the series' tail bound holds from term index {first} on, past "
            f"its last index {last} under max_terms = {tol.max_terms}: its "
            f"tail cannot be proven")


def _run(step, tol: Tolerance, start_k: int, first_term: complex,
         first_hyp: complex, majorant, rounding=None) -> SeriesResult:
    """Shared accumulation loop.  step(k) returns (t_{k+1}, h_{k+1}), the
    term for index k+1 and its hypergeometric part, for k given as a float;
    majorant comes from _majorant.  rounding, when given, maps the number of
    terms summed to an error the terms carry from their inputs, added to the
    estimate.

    A series whose tail bound applies only past its last admissible index,
    start_k + max_terms - 1, cannot prove its tail: it raises DomainError
    naming that index, before summing a term, unless the bound applies
    from the very next index.  Then the series must end on a zero term
    there, a terminating one of exactly max_terms terms, or be refused.

    The loop keeps its compensated sum (total + comp) in local variables,
    floats or complex as the terms are: a method call or a helper per term
    would cost as much as the term's own arithmetic.  So the tail bound runs
    only at terms that pass its floor,
    |t_k| (k + floor) <= rel_tol * excess * |partial sum|.
    """
    first, floor, excess, bound = majorant
    last = start_k + tol.max_terms - 1
    if first > last + 1:
        raise DomainError(_unproven(first, last, tol))
    rel_tol = tol.rel_tol
    scale = rel_tol * excess
    # 0.0 + turns a -0.0 into the +0.0 a sum started from zero holds
    total = 0.0 + first_term
    comp = 0.0
    t_abs = peak = abs(first_term)
    hyp = first_hyp
    # k steers the loop against the int caps, which may pass 2**53; kf is
    # k as a float, for arithmetic CPython specialises
    k = start_k
    kf = start = float(start_k)
    hit_max = False
    tail = math.inf
    drift = 0.0
    while True:
        if k >= first:
            size = abs(total + comp)
            if t_abs * (kf + floor) <= scale * size:
                tail = bound(k, t_abs, abs(hyp))
                if tail <= rel_tol * size:
                    break
        if k >= last:
            if k < first:
                # first is last + 1: only a zero term ends the series here
                if step(kf)[1] != 0.0:
                    raise DomainError(_unproven(first, last, tol))
                tail = 0.0
                break
            tail = bound(k, t_abs, abs(hyp))
            hit_max = True
            break
        term, hyp = step(kf)
        if hyp == 0.0:
            # multiplicative updates: an exact zero terminates the series;
            # it contributed nothing, so it is not counted
            tail = 0.0
            break
        k += 1
        kf += 1.0
        u = total + term
        v = u - total
        comp += (total - (u - v)) + (term - v)
        total = u
        t_abs = abs(term)
        if t_abs > peak:
            peak = t_abs
        drift += t_abs * (kf - start)
    terms_used = k - start_k + 1
    est = _estimate(tail, peak, drift)
    if rounding is not None:
        est += rounding(terms_used)
    return SeriesResult(complex(total + comp), terms_used, est, hit_max)


def sum_hyp3f2(num, den, tol: Tolerance = _DEFAULT_TOL) -> SeriesResult:
    """Sum_k (n1)_k (n2)_k (n3)_k / ((d1)_k (d2)_k k!) at unit argument.

    Requires positive real parametric excess d1+d2-n1-n2-n3 unless a
    numerator parameter is a nonpositive integer (terminating sum).
    """
    n1, n2, n3 = (complex(v) for v in num)
    d1, d2 = (complex(v) for v in den)
    for v in (d1, d2):
        if nonpos_int_distance(v) <= POLE_TOL:
            raise InvalidParameterError(
                f"denominator parameter {v!r} is a nonpositive integer"
            )
    excess = d1 + d2 - n1 - n2 - n3
    terminating = any(nonpos_int_distance(v) <= 1e-300 for v in (n1, n2, n3))
    if excess.real <= 0.0 and not terminating:
        raise DivergentSeriesError(
            f"series excess {excess!r} has nonpositive real part"
        )
    return _sum_hyp3f2(n1, n2, n3, d1, d2, tol)


def _sum_hyp3f2(n1: complex, n2: complex, n3: complex, d1: complex,
                d2: complex, tol: Tolerance) -> SeriesResult:
    # sum_hyp3f2 without its checks, for a convergent or terminating series
    # with no denominator at a pole
    if not (n1.imag or n2.imag or n3.imag or d1.imag or d2.imag):
        n1, n2, n3, d1, d2 = n1.real, n2.real, n3.real, d1.real, d2.real
    t = 1.0

    def step(k: float) -> tuple:
        nonlocal t
        t = (t * (n1 + k) * (n2 + k) * (n3 + k)
             / ((d1 + k) * (d2 + k) * (k + 1.0)))
        return t, t

    majorant = _majorant((n1, n2, n3), (d1, d2, 1.0))
    if majorant[0] >= tol.max_terms:
        # past the cap, _run refuses a series whose bound it cannot reach;
        # a numerator at a nonpositive integer -m ends this one at index m,
        # and _run stops there on the zero term without the bound
        for x in (n1, n2, n3):
            if not x.imag and x.real <= 0.0 and x.real == math.floor(x.real):
                majorant = (min(majorant[0], 1 - int(x.real)),) + majorant[1:]
    return _run(step, tol, 0, t, t, majorant)


def _psi_bracket(a: complex, b: complex, w: complex) -> tuple:
    """psi(w) - gamma - psi(a) - psi(b) and a bound on its rounding in
    double: 2 eps times the moduli it sums.  Where the bracket cancels,
    that bound is far above eps times its modulus.  a, b and w are finite
    complex numbers off the poles."""
    dw, da, db = _digamma(w), _digamma(a), _digamma(b)
    return (dw - EULER_GAMMA - da - db,
            2.0 * _EPS * (abs(dw) + EULER_GAMMA + abs(da) + abs(db)))


def _hyp_abs_sum(a, b, w, count: int,
                 tol: Tolerance = _DEFAULT_TOL) -> float:
    """A bound on sum_{k<count} |h_k|, h_k = (a)_k (b)_k / ((w)_k k!).

    With A = |a|, B = |b|, R = Re w > 0, |h_{j+1}/h_j| <= (A + j)(B + j)
    / ((R + j)(j + 1)), which _majorant's fold puts below (j + x)/(j + R)
    for every j >= 0, x = A + B - 1 + max(0, (1 - A)(1 - B)) >= 0.  That
    Gauss ratio sums to (R - 1)/(R - x - 1) from h_0 = 1 when R > x + 1;
    otherwise finite_sum sums the count terms.
    """
    big_a, big_b, re_w = abs(a), abs(b), w.real
    x = big_a + big_b - 1.0 + max(0.0, (1.0 - big_a) * (1.0 - big_b))
    if re_w > x + 1.0:
        return (re_w - 1.0) / (re_w - x - 1.0)
    return finite_sum(a, b, w, 1.0, count, tol)[1]


def sum_psi_kernel(a, b, w, tol: Tolerance = _DEFAULT_TOL) -> SeriesResult:
    """Sum_{k>=0} (a)_k (b)_k / ((w)_k k!) * {psi(w+k)+psi(1+k)-psi(a+k)-psi(b+k)}.

    The digamma values are advanced by their recurrence, so each term costs
    four reciprocals.  The bracket decays like (w-a-b+1)/k, giving overall
    term decay k^-(Re(w-a-b)+2).
    """
    w = _off_pole(w, "digamma")
    a = _off_pole(a, "digamma")
    b = _off_pole(b, "digamma")
    return _sum_psi_kernel(a, b, w, tol)


def _sum_psi_kernel(a: complex, b: complex, w: complex,
                    tol: Tolerance) -> SeriesResult:
    # sum_psi_kernel without its checks, for finite complex a, b, w off the
    # poles
    br, br_err = _psi_bracket(a, b, w)
    if not (a.imag or b.imag or w.imag or br.imag):
        a, b, w, br = a.real, b.real, w.real, br.real
    t = 1.0

    def step(k: float) -> tuple:
        nonlocal t, br
        t = t * (a + k) * (b + k) / ((w + k) * (k + 1.0))
        br = br + 1.0 / (w + k) + 1.0 / (1.0 + k) - 1.0 / (a + k) - 1.0 / (b + k)
        return t * br, t

    # br = psi(w+k) - psi(a+k) + psi(1+k) - psi(b+k) tends to 0, and every
    # term carries the starting bracket's rounding times h_k
    return _run(step, tol, 0, br, t,
                _majorant((a, b), (w, 1.0), ((w, a), (1.0, b)),
                          vanishing=True),
                rounding=lambda count: br_err * _hyp_abs_sum(a, b, w, count,
                                                             tol))


def sum_alt_kernel(a, b, w, tol: Tolerance = _DEFAULT_TOL) -> SeriesResult:
    """Sum_{k>=1} (a)_k (b)_k / ((w)_k k!) * {h_k - sigma_k} with
    h_k = sum_{r<k} 1/(w+r) and sigma_k = sum_{r<k} (1/(a+r)+1/(b+r)-1/(r+1)).

    The bracket tends to a nonzero constant, so terms decay one power slower
    than the psi-kernel form: k^-(Re(w-a-b)+1).
    """
    w = _off_pole(w, "digamma")
    a = _off_pole(a, "digamma")
    b = _off_pole(b, "digamma")
    return _sum_alt_kernel(a, b, w, tol)


def _sum_alt_kernel(a: complex, b: complex, w: complex,
                    tol: Tolerance) -> SeriesResult:
    # sum_alt_kernel without its checks, for finite complex a, b, w off the
    # poles
    t = a * b / w
    h = 1.0 / w
    s = 1.0 / a + 1.0 / b - 1.0

    def step(k: float) -> tuple:
        nonlocal t, h, s
        t = t * (a + k) * (b + k) / ((w + k) * (k + 1.0))
        h = h + 1.0 / (w + k)
        s = s + 1.0 / (a + k) + 1.0 / (b + k) - 1.0 / (k + 1.0)
        return t * (h - s), t

    # h - s = psi(w+k) - psi(a+k) + psi(1+k) - psi(b+k) minus its value at 0
    return _run(step, tol, 1, t * (h - s), t,
                _majorant((a, b), (w, 1.0), ((w, a), (1.0, b))))
