"""Branch dispatch and evaluation of the partial sums S_n(a, b; c).

Each eval_* routine implements one convergent rearrangement of the truncated
Gauss series at unit argument, selected by the integer character of the
parametric excess s = c - a - b; eval_auto routes on the branch that
ParamSet decided when it was built (ParamSet.branch).  All
series stop where a tail bound proven from their parameters meets a shared
Tolerance, and that bound is the tail part of the error estimate.  The
identity S_1 = 1 is returned directly in every branch.

The series decay like k^-(n+1) or k^-(n+2), so at small n they need more
terms than the n-term sum they replace, and the fixed cost of the
gamma-function prefactors outweighs n direct terms up to n ~ 100 on the
branches with a series and n ~ 35 on the positive-integer and degenerate
branches, which have only a finite sum.  eval_auto prices every branch's
expansion (prefactors, finite-sum terms, predicted series terms) before
running it and adds the n terms directly when that is cheaper; the
report's path field says which way it answered.  The explicit eval_*
routines always run their expansion; _series.finite_sum, the one place
finite sums stop, refuses one longer than Tolerance.max_terms, and eval_auto
adds the n terms directly only when n is within that cap too.

Every expansion is one or two pieces, each a gamma-function prefactor
exp(L) times a finite or convergent sum, and _piece holds the one rule for
a piece: it bounds a piece below the double range, exponentiates L once
through complexfn.exp_log, which refuses a piece above that range, and
forms the piece's error.  S_n is the sum of the pieces in range, and lies
below the double range when none is.
"""

from __future__ import annotations

import cmath
import math
from functools import partial

from ._series import (_DEFAULT_TOL, Tolerance, _psi_bracket, _sum_alt_kernel,
                      _sum_direct, _sum_hyp3f2, _sum_psi_kernel, finite_sum,
                      predicted_terms)
from .complexfn import (_EXP_MIN, _check_index, _log_gamma, _log_gamma_ratio,
                        _off_pole, exp_log, gamma_ratio, log_gamma)
from .errors import (DomainError, InvalidParameterError, Record,
                     WrongBranchError)
# classify itself is unused here but stays reachable as engine.classify,
# a name callers outside the package look up.
from .params import (DEGENERATE_NEG_INTEGER, GENERIC, INTEGER_TOL, LOGARITHMIC,
                     NEGATIVE_INTEGER, POSITIVE_INTEGER, ExcessClass, ParamSet,
                     _log_seq_ratios, classify)

__all__ = [
    "Tolerance",
    "EvalReport",
    "eval_generic",
    "eval_log",
    "eval_pos_int",
    "eval_neg_int",
    "eval_conjectured",
    "eval_auto",
    "leading_term",
]

# Relative accuracy floor of the double-precision gamma/digamma kernel in
# the working strip: against mpmath, over 1,500 draws with Re z, Im z in
# [-15, 15], log_gamma errs by at most 2.1e-14 absolute (so Gamma by that
# relative) and digamma by 1.0e-14 relative.  Real digamma runs a float
# twin with the same bits as the real part of the complex pass, and the
# real pair difference's float twin (math.log1p) stays within 4 eps of
# max(1, |difference|) of that pass, far inside this floor.  Every reported
# est_error includes this so kernel roundoff cannot escape the estimate.
_KERNEL_REL = 1e-13

# Each prefactor is exp(L), where L sums log-gamma values and the pair
# logarithms of log omega_n or log lambda_n.  L is rounded to a few eps of
# the moduli it sums, and exp makes that a relative error, so the floor
# grows with those moduli: with the parameters' log-gamma values, and with
# log n through the pair logarithms log Gamma(n+a)/Gamma(n) and
# log Gamma(n+b)/Gamma(n+x), whose moduli reach |a| log n and |b - x| log n.
# Against mpmath the pair logarithms' rounding stays under 0.94 of
# 2 eps (|a| + |b - x|) log n up to n = 10^15, and generic answers with
# parameters of modulus up to 300 stay under 0.6 of the floor below.
_LOG_REL = 2 * 2.0 ** -52


def _rel_floor(size: float) -> float:
    """Relative rounding floor of a piece exp(L) whose log L sums terms of
    moduli adding up to size; series recurrence drift is already inside
    each SeriesResult.est_error."""
    return _KERNEL_REL + _LOG_REL * size


def _pair_size(n: int, a, b, x) -> float:
    """Modulus bound of the pair logarithms in log omega_n (x = c) or
    log lambda_n (x = a + b)."""
    return (abs(a) + abs(b - x)) * math.log(n)


class EvalReport(Record):
    """An evaluated partial sum.  path is "expansion" when the branch's
    expansion answered and "direct_sum" when eval_auto added the n terms."""

    _fields = ("value", "branch", "terms_used", "est_error", "warnings",
               "path")

    def __init__(self, value: complex, branch: ExcessClass, terms_used: int,
                 est_error: float, warnings: tuple = (),
                 path: str = "expansion"):
        d = self.__dict__
        d["value"] = value
        d["branch"] = branch
        d["terms_used"] = terms_used
        d["est_error"] = est_error
        d["warnings"] = warnings
        d["path"] = path


def _checked(p: ParamSet, n, kind: str, op: str) -> None:
    got = p.branch.kind
    if got != kind:
        hint = ""
        if kind == NEGATIVE_INTEGER and got == DEGENERATE_NEG_INTEGER:
            hint = " (degenerate case: route to eval_conjectured)"
        raise WrongBranchError(f"{op} needs excess class {kind}, "
                               f"got {got}{hint}")
    _check_index(n)


def _report(body, p: ParamSet, n: int, tol: Tolerance) -> EvalReport:
    """Run a branch body and report the sum of its pieces.

    S_1 = 1 needs no body.  A body returns (pieces, terms_used, hit_max),
    each piece a (value, error) pair from _piece.  The warnings are the
    branch's, then "max_terms_reached" when a series hit its cap.
    A value or estimate that is not finite is no answer: DomainError.
    A real triple's S_n is real: the imaginary rounding of the complex
    prefactors is dropped, which moves the value no farther from S_n.
    """
    cls = p.branch
    warnings = cls.warnings
    if n == 1:
        return EvalReport(1.0 + 0.0j, cls, 1, 0.0, warnings)
    pieces, terms_used, hit_max = body(p, n, tol)
    value = None
    est = 0.0
    for piece, err in pieces:
        est += err
        if piece is not None:
            value = piece if value is None else value + piece
    if value is None:
        raise DomainError("S_n lies below the double range: each piece of "
                          "it is zero or below that range")
    if not (cmath.isfinite(value) and math.isfinite(est)):
        raise DomainError(f"S_n = {value!r} with est_error {est!r}: the "
                          f"expansion gave no finite answer and error bound")
    if not (p.a.imag or p.b.imag or p.c.imag):
        value = complex(value.real, 0.0)
    if hit_max:
        warnings += ("max_terms_reached",)
    return EvalReport(value, cls, terms_used, est, warnings)


# A piece's log prefactor L sums one log_gamma per parameter-only argument
# and, for the n-dependent pieces, log omega_n or log lambda_n from
# params._log_seq_ratios (which forms the large gamma pairs from the exact
# offsets); log Gamma(c) is shared where two pieces need it.
#
# The bodies run on a ParamSet, which already proves most of what the
# kernel's public functions check: a, b and c are finite and INTEGER_TOL
# (more than POLE_TOL) from every pole, and so are n+a, n+c and n; a generic
# s keeps INTEGER_TOL from every integer, and the generic tail's exact
# excess is n >= 2.  Its gamma_pole is the one pole test on c-a and c-b: it
# drops a piece, or refuses the positive-integer branch as log_gamma would.
# So the bodies call the unchecked private kernels, and keep only checks of
# their own: the checked log_gamma on a+b, and one test on n+a+b, a pole
# test or, on the positive-integer branch, Re(n+a+b) >= 1.


def _piece(lg: complex, size: float, x=1.0, x_err: float = 0.0,
           absum: float = 0.0, d=1) -> tuple:
    """(value, error) of the piece exp(lg) x / d of S_n.

    size sums the moduli of the terms in lg, x_err is x's own error, and
    absum is Sum |t_k| when x is a finite sum Sum t_k.  In range the error
    is |pref| x_err + (|piece| + |pref| absum) _rel_floor(size), pref being
    exp(lg) / d.  Above the double range the piece is exp_log's DomainError;
    below it, its value is None and its error the bound
    e^Re(lg) (|x| + x_err + absum _rel_floor(size)) / |d|, taken in log
    space.
    """
    floor = _rel_floor(size)
    if lg.real < _EXP_MIN:
        bound = (abs(x) + x_err + absum * floor) / abs(d)
        return None, math.exp(lg.real + math.log(bound)) if bound else 0.0
    pref = exp_log(lg, "S_n")
    if d != 1:
        pref /= d
    value = pref * x
    pref_abs = abs(pref)
    return value, pref_abs * x_err + (abs(value) + pref_abs * absum) * floor


def eval_generic(p: ParamSet, n: int, tol: Tolerance = _DEFAULT_TOL) -> EvalReport:
    """Noninteger excess: closed Gauss piece minus a weighted 3F2(1) tail.

    When c-a or c-b sits at a nonpositive integer the Gauss piece is exactly
    zero (reciprocal-gamma pole) and the tail series terminates on its own;
    classification flags this with a gamma_pole warning rather than refusing.
    """
    _checked(p, n, GENERIC, "eval_generic")
    return _report(_generic, p, n, tol)


def _generic(p: ParamSet, n: int, tol: Tolerance) -> tuple:
    a, b, c, s, ca, cb = p.a, p.b, p.c, p.s, p.ca, p.cb
    lg_c, lg_a, lg_b = _log_gamma(c), _log_gamma(a), _log_gamma(b)
    # the Gauss piece Gamma(c) Gamma(s) / (Gamma(c-a) Gamma(c-b)) is zero at
    # a pole of 1/Gamma, and then S_n is the tail alone
    if p.gamma_pole:
        pieces = ()
    else:
        lg_s, lg_ca, lg_cb = _log_gamma(s), _log_gamma(ca), _log_gamma(cb)
        pieces = (_piece(lg_c + lg_s - lg_ca - lg_cb,
                         abs(lg_c) + abs(lg_s) + abs(lg_ca) + abs(lg_cb)),)
    log_omega, = _log_seq_ratios(n, a, b, c)
    series = _sum_hyp3f2(ca, cb, 1.0 + 0.0j, n + c, 1.0 + s, tol)
    # the tail enters with a minus sign, so it divides by -s
    tail = _piece(log_omega + lg_c - lg_a - lg_b,
                  _pair_size(n, a, b, c) + abs(lg_c) + abs(lg_a) + abs(lg_b),
                  series.value, series.est_error, d=-s)
    return pieces + (tail,), series.terms_used, series.hit_max


def eval_log(p: ParamSet, n: int, tol: Tolerance = _DEFAULT_TOL,
             form: str = "psi_series") -> EvalReport:
    """Zero excess (c = a+b): digamma-weighted inverse factorial series.

    form="psi_series" evaluates the four-digamma bracket per term;
    form="alternative" splits off the psi(n+a+b) + c_0 head so the remaining
    bracket h_k - sigma_k tends to a constant.  The two agree to est_error.
    """
    _checked(p, n, LOGARITHMIC, "eval_log")
    if form not in ("psi_series", "alternative"):
        raise InvalidParameterError(f"unknown form {form!r}")
    return _report(partial(_log, form=form), p, n, tol)


def _log(p: ParamSet, n: int, tol: Tolerance,
         form: str = "psi_series") -> tuple:
    a, b = p.a, p.b
    w = _off_pole(n + a + b, "gamma_ratio")
    log_lambda, = _log_seq_ratios(n, a, b, a + b)
    lg_ab, lg_a, lg_b = log_gamma(a + b), _log_gamma(a), _log_gamma(b)
    lg_pref = lg_ab - lg_a - lg_b
    pref_size = abs(lg_ab) + abs(lg_a) + abs(lg_b)
    tail_size = _pair_size(n, a, b, a + b) + pref_size
    if form == "psi_series":
        ker = _sum_psi_kernel(a, b, w, tol)
        pieces = ()
    else:
        ker = _sum_alt_kernel(a, b, w, tol)
        # head: the prefactor times psi(w) - gamma - psi(a) - psi(b), which
        # can cancel far below the digamma moduli it sums
        pieces = (_piece(lg_pref, pref_size, *_psi_bracket(a, b, w)),)
    tail = _piece(log_lambda + lg_pref, tail_size, ker.value, ker.est_error)
    return pieces + (tail,), ker.terms_used, ker.hit_max


def eval_pos_int(p: ParamSet, n: int) -> EvalReport:
    """Excess s = +m: exact finite inverse factorial sum of m terms.

    Needs Re(n+a+b) >= 1: the sum divides by (n+a+b)_k, which vanishes at
    the poles of Gamma(n+a+b) and amplifies the rounding of a+b near them.
    """
    _checked(p, n, POSITIVE_INTEGER, "eval_pos_int")
    return _report(_pos_int, p, n, _DEFAULT_TOL)


def _pos_int(p: ParamSet, n: int, tol: Tolerance) -> tuple:
    a, b, c = p.a, p.b, p.c
    m = p.branch.m
    w = n + a + b
    if w.real < 1.0:
        raise DomainError(f"Re(n+a+b) = {w.real:.6g} < 1: the expansion "
                          f"divides by (n+a+b)_k, which vanishes or nearly "
                          f"so there; eval_auto adds the n terms directly "
                          f"when n <= max_terms")
    total, absum = finite_sum(a, b, w, 1, m, tol)
    log_lambda, = _log_seq_ratios(n, a, b, a + b)
    lg_c, lg_s = _log_gamma(c), _log_gamma(p.s)
    if p.gamma_pole:  # log_gamma's PoleError, on c-a or else on c-b
        for z in (p.ca, p.cb):
            _off_pole(z, "log_gamma")
    lg_ca, lg_cb = _log_gamma(p.ca), _log_gamma(p.cb)
    size = (_pair_size(n, a, b, a + b) + abs(lg_c) + abs(lg_s) + abs(lg_ca)
            + abs(lg_cb))
    piece = _piece(log_lambda + lg_c + lg_s - lg_ca - lg_cb, size, total,
                   absum=absum)
    return (piece,), m, False


def eval_neg_int(p: ParamSet, n: int, tol: Tolerance = _DEFAULT_TOL) -> EvalReport:
    """Excess s = -m, neither a nor b in {1..m}: finite sum plus psi-series."""
    _checked(p, n, NEGATIVE_INTEGER, "eval_neg_int")
    return _report(_neg_int, p, n, tol)


def eval_conjectured(p: ParamSet, n: int) -> EvalReport:
    """Degenerate s = -m with a or b a positive integer p <= m.

    At a = p, S_n is eval_neg_int's finite sum alone, over m-p+1 terms:
    omega_n Gamma(c) / (m Gamma(a) Gamma(b)) Sum_{k<=m-p} (p-m)_k (b-m)_k
    / ((n+c)_k (1-m)_k).  Proof: let a tend to p from outside {1..m} at
    fixed b and s = -m, where eval_neg_int's expansion holds.  Both sides
    are continuous in a: S_n sums terms rational in a with (c)_k off zero,
    and the psi kernel's series converges uniformly near p.  The tail's
    factor 1/Gamma(c-b) = 1/Gamma(a-m) tends to 1/Gamma(p-m) = 0 while its
    other factors stay finite, and (c-b)_k = (p-m)_k is zero from k = m-p+1
    on, (1-m)_k not for k < m.  Likewise for b = p.  The body drops the
    tail within POLE_TOL of that pole, and sums m-p+1 terms at exactly p.
    """
    _checked(p, n, DEGENERATE_NEG_INTEGER, "eval_conjectured")
    return _report(_neg_int, p, n, _DEFAULT_TOL)


def _neg_int(p: ParamSet, n: int, tol: Tolerance) -> tuple:
    a, b, c = p.a, p.b, p.c
    cls = p.branch
    m = cls.m
    # at s = -m, a-m and b-m are c-b and c-a; (p-m)_k is 0 from k = m-p+1 on
    exact = cls.p is not None and getattr(p, cls.which) == cls.p
    count = m - cls.p + 1 if exact else m
    finite, absum = finite_sum(a - m, b - m, n + c, 1 - m, count, tol)
    # on the degenerate line the tail's 1/(Gamma(c-a) Gamma(c-b)) is zero
    pole = p.gamma_pole
    if pole:
        log_omega, = _log_seq_ratios(n, a, b, c)
    else:
        w = _off_pole(n + a + b, "gamma_ratio")
        log_omega, log_lambda = _log_seq_ratios(n, a, b, c, a + b)
    lg_c, lg_a, lg_b = _log_gamma(c), _log_gamma(a), _log_gamma(b)
    head = _piece(log_omega + lg_c - lg_a - lg_b,
                  _pair_size(n, a, b, c) + abs(lg_c) + abs(lg_a) + abs(lg_b),
                  finite, absum=absum, d=m)
    if pole:
        return (head,), count, False
    lg_ca, lg_cb = _log_gamma(p.ca), _log_gamma(p.cb)
    lg_m = math.lgamma(m + 1)
    ker = _sum_psi_kernel(a, b, w, tol)
    size = (_pair_size(n, a, b, a + b) + abs(lg_c) + abs(lg_ca) + abs(lg_cb)
            + lg_m)
    # the tail's sign (-1)^m, as its divisor
    tail = _piece(log_lambda + lg_c - lg_ca - lg_cb - lg_m, size, ker.value,
                  ker.est_error, d=-1.0 if m % 2 else 1)
    return (head, tail), m + ker.terms_used, ker.hit_max


# The branch bodies behind eval_auto, keyed by the ParamSet's branch.
_BRANCHES = {
    GENERIC: _generic,
    LOGARITHMIC: _log,
    POSITIVE_INTEGER: _pos_int,
    NEGATIVE_INTEGER: _neg_int,
    DEGENERATE_NEG_INTEGER: _neg_int,
}


# eval_auto's cost model, in units of one direct-sum term at the same
# parameters: 0.22-0.33 us at real parameters and 0.48-0.60 us at complex
# ones (Python 3.11 on a shared 2-core x86-64 host, timeit best of 5, slope
# of sum_direct between n = 20 and 70, 12 real and 12 complex draws with
# 0.3 <= Re <= 7 and |Im| <= 3; the medians of ten fits, 0.23 and 0.49).
# The constants below were fitted in older units: the series branches'
# two when a term cost 0.55-0.93 us, the finite-only one at 0.31-0.41 us
# (real) and 0.50-0.69 us (complex).  So at real parameters the direct sum
# is now cheaper against the expansion than they assume; a refit moves
# paths, and is left to a change of its own.
# The series branches' body at n in {20, 40, 70, 100, 150, 250} (generic,
# logarithmic and s = -2 draws, real and complex, |parameter| <= 7, 144
# timings) cost, by least squares, 72 direct terms + 2.2 per predicted
# series term (medians of ten fits): its prefactors and the costlier
# psi-kernel terms fall into these two figures.  The finite-only branches
# (positive integer, degenerate) cost their prefactors plus one direct term
# per finite-sum term: their bodies at the same n (positive-integer and
# degenerate draws, real and complex, |parameter| <= 7, up to 144 timings
# per fit, each in its own draw's unit) cost 32.6 direct terms past their
# finite sum, by least squares of that one constant (median of ten fits).
_EXPANSION_FIXED_COST = 72.0
_SERIES_TERM_COST = 2.2
_FINITE_FIXED_COST = 32.6


def _expansion_cost(p: ParamSet, n: int, tol: Tolerance) -> float:
    """What the branch's expansion costs at n, in direct-sum terms: its
    fixed cost, one per finite-sum term and _SERIES_TERM_COST per predicted
    series term; infinite where it cannot answer."""
    cls = p.branch
    kind = cls.kind
    a, b = p.a, p.b
    if kind == POSITIVE_INTEGER:
        if (n + a + b).real < 1.0:
            return math.inf
        return _FINITE_FIXED_COST + cls.m
    # _neg_int drops the tail on a pole; a negative-integer input keeps
    # INTEGER_TOL from the poles and from {1..m}, so it never meets one
    if kind == DEGENERATE_NEG_INTEGER and p.gamma_pole:
        return _FINITE_FIXED_COST + (cls.m - cls.p + 1)
    fixed = _EXPANSION_FIXED_COST
    if kind in (NEGATIVE_INTEGER, DEGENERATE_NEG_INTEGER):
        fixed += cls.m
    if n < fixed + _SERIES_TERM_COST:
        # the predicted count below is at least 1
        return fixed + _SERIES_TERM_COST
    if kind == GENERIC:
        need = (predicted_terms(n + 1, tol.rel_tol)
                * (1.0 + max(abs(p.ca), abs(p.cb))))
    else:
        need = (predicted_terms(n + 2, tol.rel_tol)
                * (1.0 + max(abs(a), abs(b))))
    return fixed + _SERIES_TERM_COST * need


def eval_auto(p: ParamSet, n: int, tol: Tolerance = _DEFAULT_TOL) -> EvalReport:
    """Evaluate by the branch the excess selects, or by the n terms themselves.

    The expansion's cost is priced in direct-sum terms: a fixed cost for
    its gamma-function prefactors, one per term of its finite sum (m on
    the integer branches, m - p + 1 on the degenerate one), and a multiple
    of its predicted series terms.  The generic tail series decays like
    k^-(n+1) and the psi kernel (log and negative-integer branches) like
    k^-(n+2); large c-a, c-b (generic) or a, b (psi kernel) delay the decay
    further.  The count so predicted is rel_tol^(-1/n) or
    rel_tol^(-1/(n+1)) times 1 + the largest of those moduli.  When n is
    below the expansion's cost and at most tol.max_terms, the n terms of
    S_n are added directly instead and the report's path is "direct_sum";
    past max_terms the expansion answers or refuses.  The positive-integer
    branch's finite sum divides by (n+a+b)_k, which can vanish only when
    Re(n+a+b) < 1; there the direct sum answers within max_terms.  A
    degenerate input whose tail does not vanish (ParamSet.gamma_pole false)
    is priced as a negative-integer one.

    A series whose proven tail bound holds only from an index past its
    term cap, and which does not end on a zero term within the cap, cannot
    answer: such an input (for example n + c or n + a + b far below
    -max_terms) raises DomainError at once, naming that index, instead of
    summing max_terms terms toward a NaN or infinite error bar.
    No answer is returned with a non-finite value or est_error.
    """
    _check_index(n)
    if 2 <= n <= tol.max_terms and n < _expansion_cost(p, n, tol):
        cls = p.branch
        value, est = _sum_direct(p.a, p.b, p.c, n)
        return EvalReport(value, cls, n, est, cls.warnings, "direct_sum")
    return _report(_BRANCHES[p.branch.kind], p, n, tol)


def leading_term(p: ParamSet, n: int) -> complex:
    """Leading large-n behavior of the partial sum.

    Re s > 0: the Gauss value.  Re s < 0: Gamma(c) n^(-s) / ((-s) Gamma(a)
    Gamma(b)).  s = 0: (Gamma(a+b)/(Gamma(a)Gamma(b))) log n.  The
    oscillatory boundary Re s = 0 with s != 0 has no single leading term and
    is refused.
    """
    _check_index(n)
    a, b, c, s = p.a, p.b, p.c, p.s
    if p.branch.kind == LOGARITHMIC:
        return gamma_ratio([a + b], [a, b]) * math.log(n)
    if p.branch.kind == GENERIC and abs(s.real) < INTEGER_TOL:
        raise DomainError("no single leading term when Re s = 0 with s != 0")
    if s.real > 0.0:
        return gamma_ratio([c, s], [p.ca, p.cb])
    # one exponent, as n^(-s) alone can leave the range the term is in
    lg = _log_gamma_ratio([c], [a, b]) - s * math.log(n)
    return exp_log(lg, "the leading term") / (-s)
