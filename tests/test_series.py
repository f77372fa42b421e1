import math
import random

import mpmath as mp
import pytest

from hypersum import _series, engine, landau
from hypersum._series import (
    SeriesResult,
    finite_sum,
    sum_alt_kernel,
    sum_direct,
    sum_hyp3f2,
    sum_psi_kernel,
)
from hypersum.coeffs import (asym_log, asym_neg_int, rearranged_tail,
                             remainder_bound)
from hypersum.complexfn import (EULER_GAMMA, digamma, exp_log, gamma_ratio,
                                log_gamma, nonpos_int_distance)
from hypersum.engine import (Tolerance, eval_auto, eval_conjectured,
                             eval_generic, eval_log, eval_neg_int,
                             eval_pos_int)
from hypersum.errors import (DivergentSeriesError, DomainError,
                             InvalidParameterError, PoleError)
from hypersum.params import ParamSet, _log_seq_ratios


class TestHyp3F2:
    def test_golden_value(self):
        res = sum_hyp3f2([0.5, 0.5, 1.0], [12.0, 1.75])
        assert res.value.real == pytest.approx(1.0127632289039901, rel=1e-14)
        assert not res.hit_max
        assert res.est_error < 1e-13

    def test_rational_golden_covered_at_cap(self):
        # excess exactly 1: terms decay like 1/k^2, so the cap is hit long
        # before the closed value 76/35; the estimate must own the residual
        res = sum_hyp3f2([1.0, 1.0, 4.5], [2.5, 5.0])
        assert res.hit_max
        assert abs(res.value.real - 76.0 / 35.0) <= res.est_error

    def test_terminating_term_count(self):
        # (-2)_k kills the series after k = 2; the zero term is not counted
        res = sum_hyp3f2([-2.0, 1.0, 1.0], [5.0, 7.0])
        assert res.terms_used == 3
        assert res.value.real == pytest.approx(1.0 - 2.0 / 35.0 + 1.0 / 420.0,
                                               rel=1e-15)

    def test_terminating_at_the_cap(self):
        # (-3)_k ends the series after 4 nonzero terms, and n + c puts its
        # tail bound's first index near 2e6: a cap of exactly 4 terms
        # still reaches the zero term and returns the whole sum
        num, den = [-3.0, 1.0, 1.0], [-2e6 + 0.5, 2.0]
        res = sum_hyp3f2(num, den, Tolerance(max_terms=4))
        assert res == sum_hyp3f2(num, den, Tolerance(max_terms=5))
        assert res.terms_used == 4 and not res.hit_max
        assert math.isfinite(res.est_error)
        with pytest.raises(DomainError, match="index 4 on, past its last "
                                              "index 2"):
            sum_hyp3f2(num, den, Tolerance(max_terms=3))

    def test_divergent_raises(self):
        # excess = sum(den) - sum(num) <= 0 and non-terminating
        with pytest.raises(DivergentSeriesError):
            sum_hyp3f2([2.0, 2.0, 1.0], [1.5, 2.5])

    def test_denominator_pole_raises(self):
        with pytest.raises(InvalidParameterError):
            sum_hyp3f2([0.5, 0.5, 1.0], [-3.0, 1.75])

    def test_max_terms_flag(self):
        res = sum_hyp3f2([1.0, 1.0, 1.0], [2.5, 2.5],
                         Tolerance(max_terms=50))
        assert res.hit_max
        assert res.terms_used == 50
        # the estimate must cover the abandoned tail
        full = sum_hyp3f2([1.0, 1.0, 1.0], [2.5, 2.5])
        assert abs(res.value - full.value) <= res.est_error


class TestPsiKernel:
    def test_against_oracle(self):
        from hypersum.oracle import partial_sum_ref

        # kernel value backing S_40(1/3, 2/3; 1): frozen from the 40-digit run
        res = sum_psi_kernel(1.0 / 3.0, 2.0 / 3.0, 41.0)
        assert isinstance(res, SeriesResult)
        assert res.est_error < 1e-12
        ref = partial_sum_ref(1.0 / 3.0, 2.0 / 3.0, 1.0, 40)
        # reassemble the partial sum the way the engine does
        from hypersum.complexfn import gamma_ratio

        lam = gamma_ratio([40 + 1.0 / 3.0, 40 + 2.0 / 3.0], [40.0, 41.0])
        pref = gamma_ratio([1.0], [1.0 / 3.0, 2.0 / 3.0])
        got = lam * pref * res.value
        assert abs(got - ref.as_complex()) <= 5e-14 * abs(got)


    def test_bracket_rounding_bound(self):
        # the starting bracket's rounding enters est_error times a bound on
        # sum |h_k| over the terms used: in closed form where a Gauss ratio
        # majorizes |h_{k+1}/h_k|, summed otherwise
        rng = random.Random(23)
        closed = 0
        for i in range(400):
            a, b = (complex(rng.uniform(-6.0, 6.0),
                            rng.uniform(-4.0, 4.0) if i % 2 else 0.0)
                    for _ in range(2))
            w = a + b + rng.choice((2, 5, 20, 100, 10**4))
            count = rng.randint(1, 60)
            h = total = 1.0
            for k in range(count - 1):
                h *= abs((a + k) * (b + k) / ((w + k) * (k + 1)))
                total += h
            bound = _series._hyp_abs_sum(a, b, w, count)
            assert total <= bound * (1 + 1e-12), (a, b, w, count)
            closed += bound != total
        assert closed > 100
        res = sum_psi_kernel(1.5, 0.25, 7.75)
        _, br_err = _series._psi_bracket(1.5 + 0j, 0.25 + 0j, 7.75 + 0j)
        bound = br_err * _series._hyp_abs_sum(1.5, 0.25, 7.75, 1)
        assert res.est_error >= bound


class TestDirectSum:
    def test_overflow_is_domain_error(self):
        # inf - inf in the compensated sum would otherwise return nan
        with pytest.raises(DomainError, match="double range"):
            sum_direct(1e200 + 0.5j, 3e199, 0.5, 5)
        with pytest.raises(DomainError, match="double range"):
            sum_direct(1e100, 1e100, 0.5, 5)


class TestFiniteSum:
    def test_refuses_past_max_terms_before_summing(self):
        # operands that fail on any arithmetic: the cap is checked first
        poison = object()
        with pytest.raises(DomainError,
                           match="has 11 terms, more than max_terms = 10"):
            finite_sum(poison, poison, poison, poison, 11,
                       Tolerance(max_terms=10))
        with pytest.raises(DomainError, match="max_terms = 1000000"):
            finite_sum(poison, poison, poison, poison, 10**9)

    def test_unprovable_tail_refused_before_summing(self):
        # the bound of (-20.3)_k (0.4)_k / ((80.1)_k k!) holds from index
        # 21 on, past the last index 9 that ten terms allow
        def step(k):
            raise AssertionError("a term was summed")
        with pytest.raises(DomainError, match="index 21 on, past its last "
                                              "index 9"):
            _series._run(step, Tolerance(max_terms=10), 0, 1.0, 1.0,
                         _series._majorant((-20.3, 0.4), (80.1, 1.0)))

    def test_unprovable_tail_refused_at_the_cap(self):
        # with 21 terms the bound would hold from the index just past the
        # cap; the series has no zero term there, so it is refused
        with pytest.raises(DomainError, match="index 21 on, past its last "
                                              "index 20"):
            sum_hyp3f2([-20.3, 0.4, 1.0], [80.1, 1.0],
                       Tolerance(max_terms=21))

    def test_sums_up_to_the_cap(self):
        # (1)_k (1)_k / ((2)_k (1)_k) = 1/(k + 1): the harmonic number H_10
        total, absum = finite_sum(1.0, 1.0, 2.0, 1.0, 10,
                                  Tolerance(max_terms=10))
        assert total == pytest.approx(7381 / 2520, rel=1e-15)
        assert absum == pytest.approx(7381 / 2520, rel=1e-15)


class TestAltKernel:
    def test_consistent_with_psi_route(self):
        from hypersum.coeffs import c0
        from hypersum.complexfn import digamma, gamma_ratio

        a, b, n = 1.0 / 3.0, 2.0 / 3.0, 40
        w = n + a + b
        lam = gamma_ratio([n + a, n + b], [float(n), w])
        pref = gamma_ratio([a + b], [a, b])
        psi_form = lam * pref * sum_psi_kernel(a, b, w).value
        alt_form = (pref * digamma(w) + c0(a, b)
                    + lam * pref * sum_alt_kernel(a, b, w).value)
        assert abs(psi_form - alt_form) <= 1e-13 * abs(psi_form)

    @pytest.mark.parametrize("kernel", [sum_psi_kernel, sum_alt_kernel])
    def test_kernels_check_their_parameters(self, kernel):
        # a pole of a, b or w would divide by zero in the bracket's
        # recurrence; a NaN must not reach the loop
        for a, b, w in ((0.0, 1.5, 2.5), (1.5, -2.0, 2.5), (1.5, 0.5, -3.0)):
            with pytest.raises(PoleError):
                kernel(a, b, w)
        with pytest.raises(InvalidParameterError):
            kernel(1.5, math.nan, 2.5)
        # a bad truncation control stops at the record, before any kernel
        with pytest.raises(InvalidParameterError):
            kernel(1.5, 0.5, 2.5, Tolerance(rel_tol=0.0))


class _ReferenceSum:
    """Neumaier-compensated complex accumulator, one method call per term:
    the reference the inlined loops of _series must reproduce bit for bit."""

    def __init__(self):
        self.re = self.im = self.cre = self.cim = 0.0

    def add(self, z):
        t = self.re + z.real
        if abs(self.re) >= abs(z.real):
            self.cre += (self.re - t) + z.real
        else:
            self.cre += (z.real - t) + self.re
        self.re = t
        t = self.im + z.imag
        if abs(self.im) >= abs(z.imag):
            self.cim += (self.im - t) + z.imag
        else:
            self.cim += (z.imag - t) + self.im
        self.im = t

    @property
    def total(self):
        return complex(self.re + self.cre, self.im + self.cim)


def _reference_run(step, tol, start_k, first_term, first_hyp, majorant,
                   rounding=None):
    # the stop rule written out: a refusal when the tail bound applies only
    # past the index after the cap, the tail bound at every k from `first`
    # on, and a stop at the first k where it is at most rel_tol * |partial
    # sum|
    first, _, _, bound = majorant
    if first > start_k + tol.max_terms:
        raise DomainError("the tail bound applies only past the cap")
    acc = _ReferenceSum()
    acc.add(first_term)
    t_abs = peak = abs(first_term)
    hyp, k, hit_max, tail, drift = first_hyp, start_k, False, math.inf, 0.0
    while True:
        if k >= first:
            tail = bound(k, t_abs, abs(hyp))
            if tail <= tol.rel_tol * abs(acc.total):
                break
        if k - start_k + 1 >= tol.max_terms:
            if k < first:
                # the bound applies from the next index: only a zero there
                # ends the series
                if step(k)[1] != 0.0:
                    raise DomainError("the tail bound applies past the cap")
                tail = 0.0
                break
            hit_max = True
            break
        term, hyp = step(k)
        if hyp == 0.0:
            tail = 0.0
            break
        k += 1
        acc.add(term)
        t_abs = abs(term)
        peak = max(peak, t_abs)
        drift += t_abs * (k - start_k)
    est = _series._estimate(tail, peak, drift)
    if rounding is not None:
        est += rounding(k - start_k + 1)
    return SeriesResult(acc.total, k - start_k + 1, est, hit_max)


def _reference_direct(a, b, c, n):
    acc = _ReferenceSum()
    t = 1.0 + 0.0j
    acc.add(t)
    peak, drift = 1.0, 0.0
    for k in range(n - 1):
        t = t * (a + k) * (b + k) / ((c + k) * (k + 1))
        acc.add(t)
        peak = max(peak, abs(t))
        drift += abs(t) * (k + 1)
    return SeriesResult(acc.total, n, _series._estimate(0.0, peak, drift),
                        False)


def _reference_finite_sum(x, y, u, v, count):
    term = 1.0 + 0.0j
    total = term
    absum = 1.0
    for k in range(count - 1):
        term = term * (x + k) * (y + k) / ((u + k) * (v + k))
        total += term
        absum += abs(term)
    return total, absum


def _reference_landau_direct(n):
    total = comp = 0.0
    t = 1.0
    for k in range(n + 1):
        if k:
            r = (k - 0.5) / k
            t *= r * r
        fresh = total + t
        if abs(total) >= t:
            comp += (total - fresh) + t
        else:
            comp += (t - fresh) + total
        total = fresh
    return total + comp


def _reference_theorem3(n, M):
    value = (digamma(n + 1.0).real / math.pi + landau._C0_HALF
             + rearranged_tail(0.5, 0.5, n, M).real / math.pi)
    if M >= 2:
        sigma = landau._sigma_half(M)
        lam = exp_log(_log_seq_ratios(n, 0.5, 0.5, 1.0)[0]).real
        u = 0.25 / (n + 1.0)
        ksum = u * sigma[0]
        for k in range(1, M - 1):
            u = u * (k + 0.5) ** 2 / ((n + 1.0 + k) * (k + 1.0))
            ksum += u * sigma[k]
        value -= lam * ksum / math.pi
    return value, remainder_bound(n, M)


def _fields(res):
    # repr tells -0.0 from 0.0 and compares nan to nan; the type keeps a
    # float result from a real-parameter loop apart from a complex one, and
    # a float count from the int the reference loops keep
    if isinstance(res, SeriesResult):
        return (repr(res.value), type(res.value), res.terms_used,
                type(res.terms_used), repr(res.est_error), res.hit_max)
    return repr(res)


def _outcome(call):
    try:
        return _fields(call())
    except (DivergentSeriesError, DomainError) as exc:
        return type(exc).__name__


class TestInlinedLoops:
    def test_bit_identical_to_reference_loop(self, monkeypatch):
        rng = random.Random(3)
        draws = []
        for i in range(520):
            cplx = i % 2 == 1
            # real draws carry +0.0 or -0.0 imaginary parts
            a, b, c = (complex(rng.uniform(-5.0, 5.0),
                               rng.uniform(-5.0, 5.0) if cplx
                               else 0.0 if i % 4 == 0 else -0.0)
                       for _ in range(3))
            n = rng.randint(2, 200)
            rel_tol = 10.0 ** rng.uniform(-15.0, -6.0)
            cap = rng.choice((2000, 40, 3, 1))
            draws.append((a, b, c, n, rel_tol, cap))
        # real parameters at the smallest indices
        draws += [(2.3 + 0j, 1.9 + 0j, 0.7 + 0j, n, 1e-15, 2000)
                  for n in (1, 2)]
        draws += [(complex(-1.7, -0.0), 2.3 + 0j, complex(0.4, -0.0), n,
                   1e-15, 2000) for n in (1, 2)]
        runs = 0
        for a, b, c, n, rel_tol, cap in draws:
            w = n + a + b
            tol = Tolerance(rel_tol, cap)
            calls = (
                lambda: sum_psi_kernel(a, b, w, tol),
                lambda: sum_alt_kernel(a, b, w, tol),
                lambda: sum_hyp3f2((c - a, c - b, 1.0), (n + c, 1.0 + c - a - b),
                                   tol),
                lambda: landau.landau_ck(14 + n % 60),
                # the psi kernel at real parameters
                lambda: landau.landau_watson(14 + n % 60),
            )
            for call in calls:
                got = _outcome(call)
                with monkeypatch.context() as m:
                    m.setattr(_series, "_run", _reference_run)
                    m.setattr(landau, "_run", _reference_run)
                    want = _outcome(call)
                assert got == want, (a, b, c, n)
                runs += isinstance(got, tuple)
            got = _fields(sum_direct(a, b, c, n))
            assert got == _fields(_reference_direct(a, b, c, n)), (a, b, c, n)
            assert got[1] is complex and got[3] is int
        assert runs > 1000

    def test_float_counters_match_int_counter_loops(self):
        # the loops count in floats; an int below 2**53 converts exactly,
        # so every sum keeps the bits of the int-counter loop
        rng = random.Random(4)
        for i in range(400):
            x, y, u = (complex(rng.uniform(-6.0, 6.0),
                               rng.uniform(-3.0, 3.0) if i % 2 else 0.0)
                       for _ in range(3))
            count = rng.randint(1, 60)
            # the integer-excess branches pass an int v, _hyp_abs_sum 1.0
            v = rng.choice((1, 1 - count, 1.0, complex(rng.uniform(0.5, 6.0))))
            got = finite_sum(x, y, u, v, count)
            assert repr(got) == repr(_reference_finite_sum(x, y, u, v, count))
        with mp.workdps(40):
            # table1 sums in mpmath
            x, y, u = mp.mpc(0.3, 0.1), mp.mpc(-2.7), mp.mpc(40.2, 0.1)
            got = finite_sum(x, y, u, -4, 5)
            assert got == _reference_finite_sum(x, y, u, -4, 5)
        for n in list(range(60)) + [1000, 54321]:
            assert (repr(landau.landau_direct(n))
                    == repr(_reference_landau_direct(n))), n
        for n in (3, 7, 12, 31, 64, 1000, 10**6):
            for M in range(1, min(n, 31)):
                assert (repr(landau.landau_theorem3(n, M))
                        == repr(_reference_theorem3(n, M))), (n, M)

    def test_reports_count_in_ints(self):
        # terms_used reaches the CLI's JSON: a float count would print 7.0
        tol = Tolerance(1e-15, 3)
        for a, b, c in ((0.3 + 0.2j, 1.7, 2.9), (0.3, 1.7, 2.0),
                        (0.3, 1.7, 4.0), (0.3, 1.7, 1.0), (1.0, 1.7, 0.7)):
            p = ParamSet(a, b, c)
            paths = set()
            for n in (5, 20, 500, 10**5):
                for rep in (eval_auto(p, n), eval_auto(p, n, tol)):
                    paths.add(rep.path)
                    assert type(rep.terms_used) is int, (a, b, c, n)
            assert paths == {"direct_sum", "expansion"}, (a, b, c)

    def test_terminating_sums_match_reference_loop(self, monkeypatch):
        # an exact zero term stops the loop; with excess -2 the tail
        # bound is infinite until it does
        for num, den in (((-2.0, 1.0, 1.0), (5.0, 7.0)),
                         ((-3.0, 4.0, 4.0 + 1j), (1.5, 1.5))):
            got = sum_hyp3f2(num, den)
            with monkeypatch.context() as m:
                m.setattr(_series, "_run", _reference_run)
                want = sum_hyp3f2(num, den)
            assert _fields(got) == _fields(want), num


# Each kernel's series from its definition, term by term in mpmath (not
# mp.hyp3f2, which is wrong at unit argument for some 1 + s < 0): |t_j| and
# |h_j|, its hypergeometric part, for j = start, start + 1, ...

def _mp_terms(start, h, beta, ratio, beta_step):
    j = start
    while True:
        yield j, abs(h * beta), abs(h)
        h *= ratio(j)
        beta = beta_step(beta, j)
        j += 1


def _mp_generic(p, n):
    ca, cb, nc, s1 = (mp.mpc(v) for v in (p.c - p.a, p.c - p.b, n + p.c,
                                          1.0 + p.s))
    return _mp_terms(0, mp.mpf(1), mp.mpf(1),
                     lambda j: (ca + j) * (cb + j) / ((nc + j) * (s1 + j)),
                     lambda beta, j: beta)


def _mp_bracket_step(a, b, w):
    return lambda beta, j: beta + 1 / (w + j) + 1 / (1 + j) - 1 / (a + j) - 1 / (b + j)


def _mp_psi(a, b, w):
    a, b, w = mp.mpc(a), mp.mpc(b), mp.mpc(w)
    beta = mp.digamma(w) + mp.digamma(1) - mp.digamma(a) - mp.digamma(b)
    return _mp_terms(0, mp.mpf(1), beta,
                     lambda j: (a + j) * (b + j) / ((w + j) * (1 + j)),
                     _mp_bracket_step(a, b, w))


def _mp_alt(a, b, w):
    a, b, w = mp.mpc(a), mp.mpc(b), mp.mpc(w)
    return _mp_terms(1, a * b / w, 1 / w + 1 - 1 / a - 1 / b,
                     lambda j: (a + j) * (b + j) / ((w + j) * (1 + j)),
                     _mp_bracket_step(a, b, w))


def _mp_ck(n):
    w = mp.mpf(n) + mp.mpf(3) / 2
    half = mp.mpf(1) / 2
    return _mp_terms(1, 1 / (4 * w), mp.mpf(1),
                     lambda j: (j + half) ** 2 * j / ((j + 1) ** 2 * (w + j)),
                     lambda beta, j: beta)


class TestProvenTailBound:
    """The tail bound each kernel stops on is at least the true remainder
    sum_{j>k} |t_j|, at every k from the bound's first valid index to
    three past the stop."""

    @staticmethod
    def _check(monkeypatch, call, series):
        runs = []
        run = _series._run

        def spy(*args, **kwargs):
            runs.append((args, run(*args, **kwargs)))
            return runs[-1][1]

        with monkeypatch.context() as m:
            m.setattr(_series, "_run", spy)
            m.setattr(landau, "_run", spy)
            call()
        (args, res), = runs
        start_k, (first, _, _, bound) = args[2], args[-1]
        stop = start_k + res.terms_used - 1
        with mp.workdps(40):
            rows = []
            for j, t_abs, h_abs in series():
                rows.append((t_abs, h_abs))
                if j == stop + 4:
                    # the sum runs on until the rest lies far below the
                    # last remainder checked
                    floor = max(r[0] for r in rows[-4:]) * mp.mpf(10) ** -20
                elif j > stop + 4 and t_abs < floor:
                    break
                assert j < 5000
            rem = [mp.mpf(0)] * len(rows)
            for i in range(len(rows) - 2, -1, -1):
                rem[i] = rem[i + 1] + rows[i + 1][0]
            checked = 0
            for k in range(max(first, start_k), stop + 4):
                t_abs, h_abs = rows[k - start_k]
                got = bound(k, float(t_abs), float(h_abs))
                assert rem[k - start_k] <= got * (1 + 1e-12), (k, stop, got)
                checked += 1
        return checked

    @staticmethod
    def _param(rng, cplx):
        while True:
            z = complex(rng.uniform(-5.0, 5.0),
                        rng.uniform(-5.0, 5.0) if cplx else 0.0)
            if nonpos_int_distance(z) >= 0.1:
                return z

    @staticmethod
    def _indices(rng):
        return (rng.randint(80, 120), 1000, 10 ** 6)

    def test_generic_tail(self, monkeypatch):
        rng = random.Random(21)
        checked = 0
        # Re s > 0, Re s < 0, and Re(1 + s) < -5
        for lo, hi in ((0.1, 4.9), (-4.9, -0.1), (-9.5, -6.1)):
            for cplx in (False, True):
                for n in self._indices(rng) * 2:
                    while True:
                        a, b = self._param(rng, cplx), self._param(rng, cplx)
                        s = complex(rng.uniform(lo, hi),
                                    rng.uniform(-3.0, 3.0) if cplx else 0.0)
                        c = a + b + s
                        if (min(nonpos_int_distance(z) for z in (c, c - a, c - b))
                                >= 0.1 and abs(s - round(s.real)) >= 0.1):
                            break
                    p = ParamSet(a, b, c)
                    checked += self._check(monkeypatch,
                                           lambda: eval_generic(p, n),
                                           lambda: _mp_generic(p, n))
        assert checked > 200

    def test_psi_and_alternative_kernels(self, monkeypatch):
        rng = random.Random(22)
        checked = 0
        for cplx in (False, True):
            for n in self._indices(rng) * 2:
                a, b = self._param(rng, cplx), self._param(rng, cplx)
                m = rng.randint(1, 3)
                w = n + a + b
                for call, series in (
                        (lambda: eval_log(ParamSet(a, b, a + b), n),
                         lambda: _mp_psi(a, b, w)),
                        (lambda: eval_neg_int(ParamSet(a, b, a + b - m), n),
                         lambda: _mp_psi(a, b, w)),
                        (lambda: eval_log(ParamSet(a, b, a + b), n,
                                          form="alternative"),
                         lambda: _mp_alt(a, b, w))):
                    checked += self._check(monkeypatch, call, series)
        assert checked > 100

    def test_landau_routes(self, monkeypatch):
        checked = 0
        for n in range(14, 51):
            checked += self._check(monkeypatch, lambda: landau.landau_watson(n),
                                   lambda: _mp_psi(0.5, 0.5, n + 2.0))
            checked += self._check(monkeypatch, lambda: landau.landau_ck(n),
                                   lambda: _mp_ck(n))
        assert checked > 200


# Reference loops and formulas, each written out in full for one branch or
# one arithmetic: the shared finite_sum and the arithmetic-generic
# asymptotic forms of coeffs must reproduce them bit for bit.  Their
# n-dependent ratios come from the one shared params._log_seq_ratios.

def _reference_a(a, b):
    a1 = a * b - a - b
    a2 = ((a - 1) * (b - 1) * (2 * a + 2 * b + a * b) - 4 * a * b) / 4
    a3 = ((a - 1) * (b - 1) * (6 * (2 * a * a + 2 * b * b - a - b)
          + a * b * (8 * a + 8 * b + 2 * a * b + 5))
          - 36 * a * b * (a + b - 1)) / 36
    return a1, a2, a3


def _reference_asym_log(a, b, n, K):
    av, bv = complex(a), complex(b)
    pref = gamma_ratio([av + bv], [av, bv])
    A = _reference_a(av, bv)
    corr = 0.0 + 0.0j
    for k in range(1, K + 1):
        corr += (-1) ** (k - 1) * A[k - 1] / float(n) ** k
    c0 = gamma_ratio([av + bv], [av, bv]) * (-EULER_GAMMA - digamma(av)
                                              - digamma(bv))
    return pref * digamma(n + av + bv) + c0 + pref * corr


def _reference_asym_neg_int(p, n, m, K):
    a, b, c = p.a, p.b, p.c
    term = 1.0 + 0.0j
    finite = term
    for k in range(m - 1):
        term = term * (c - a + k) * (c - b + k) / ((n + c + k) * (1 - m + k))
        finite += term
    first = (finite * exp_log(_log_seq_ratios(n, a, b, c)[0])
             * gamma_ratio([c], [a, b]) / m)
    A = _reference_a(a, b)
    bracket = digamma(n + a + b) - EULER_GAMMA - digamma(a) - digamma(b)
    for k in range(1, K + 1):
        bracket += (-1) ** (k - 1) * A[k - 1] / float(n) ** k
    sign = -1.0 if m % 2 else 1.0
    second = sign * gamma_ratio([c], [c - a, c - b, m + 1]) * bracket
    return first + second


def _reference_pos_int(p, n, m):
    a, b, c = p.a, p.b, p.c
    w = n + a + b
    term = 1.0 + 0.0j
    total = term
    absum = 1.0
    for k in range(m - 1):
        term = term * (a + k) * (b + k) / ((w + k) * (k + 1))
        total += term
        absum += abs(term)
    lg_c, lg_s = log_gamma(c), log_gamma(c - a - b)
    lg_ca, lg_cb = log_gamma(c - a), log_gamma(c - b)
    pref = exp_log(_log_seq_ratios(n, a, b, a + b)[0] + lg_c + lg_s
                   - lg_ca - lg_cb)
    size = (engine._pair_size(n, a, b, a + b) + abs(lg_c) + abs(lg_s)
            + abs(lg_ca) + abs(lg_cb))
    est = (abs(pref * total) + abs(pref) * absum) * engine._rel_floor(size)
    return pref * total, m, est


def _reference_neg_int(p, n, m):
    a, b, c = p.a, p.b, p.c
    term = 1.0 + 0.0j
    finite = term
    absum = 1.0
    for k in range(m - 1):
        term = term * (a - m + k) * (b - m + k) / ((n + c + k) * (1 - m + k))
        finite += term
        absum += abs(term)
    log_omega, log_lambda = _log_seq_ratios(n, a, b, c, a + b)
    lg_c, lg_a, lg_b = log_gamma(c), log_gamma(a), log_gamma(b)
    lg_ca, lg_cb, lg_m = log_gamma(c - a), log_gamma(c - b), math.lgamma(m + 1)
    pref1 = exp_log(log_omega + lg_c - lg_a - lg_b) / m
    pref2 = (-1.0) ** m * exp_log(log_lambda + lg_c - lg_ca - lg_cb - lg_m)
    ker = sum_psi_kernel(a, b, n + a + b)
    head = pref1 * finite
    tail = pref2 * ker.value
    size1 = engine._pair_size(n, a, b, c) + abs(lg_c) + abs(lg_a) + abs(lg_b)
    size2 = (engine._pair_size(n, a, b, a + b) + abs(lg_c) + abs(lg_ca)
             + abs(lg_cb) + lg_m)
    est = ((abs(head) + abs(pref1) * absum) * engine._rel_floor(size1)
           + (abs(pref2) * ker.est_error
              + abs(tail) * engine._rel_floor(size2)))
    return head + tail, m + ker.terms_used, est


def _reference_conjectured(p, n, m, p_int):
    a, b, c = p.a, p.b, p.c
    term = 1.0 + 0.0j
    total = term
    absum = 1.0
    for k in range(m - p_int):
        term = term * (a - m + k) * (b - m + k) / ((n + c + k) * (1 - m + k))
        total += term
        absum += abs(term)
    lg_c, lg_a, lg_b = log_gamma(c), log_gamma(a), log_gamma(b)
    pref = exp_log(_log_seq_ratios(n, a, b, c)[0] + lg_c - lg_a - lg_b) / m
    size = engine._pair_size(n, a, b, c) + abs(lg_c) + abs(lg_a) + abs(lg_b)
    est = (abs(pref * total) + abs(pref) * absum) * engine._rel_floor(size)
    return pref * total, m - p_int + 1, est


def _report_fields(rep):
    return (repr(rep.value), rep.terms_used, repr(rep.est_error))


def _reference_fields(ref, p):
    value, terms, est = ref
    if not (p.a.imag or p.b.imag or p.c.imag):
        value = complex(value.real, 0.0)  # a real triple answers real
    return (repr(value), terms, repr(est))


class TestSharedFormulas:
    @staticmethod
    def _draws(seed, count):
        rng = random.Random(seed)
        made = 0
        while made < count:
            cplx = made % 2 == 1
            a, b = (complex(rng.uniform(-5.0, 5.0),
                            rng.uniform(-5.0, 5.0) if cplx else 0.0)
                    for _ in range(2))
            if min(nonpos_int_distance(a), nonpos_int_distance(b),
                   abs(a - round(a.real)), abs(b - round(b.real)),
                   abs(a + b - round((a + b).real))) < 0.1:
                continue
            made += 1
            yield rng, a, b

    @staticmethod
    def _index(rng):
        # small n where the finite sums dominate, large n up to 10^6
        if rng.random() < 0.5:
            return rng.randint(10, 300)
        return int(10.0 ** rng.uniform(3.0, 6.0))

    def test_asymptotic_forms_bit_identical(self):
        for rng, a, b in self._draws(11, 300):
            n = self._index(rng)
            for K in range(4):
                assert (repr(asym_log(a, b, n, K))
                        == repr(_reference_asym_log(a, b, n, K))), (a, b, n, K)
            m = rng.randint(1, 5)
            p = ParamSet(a, b, a + b - m)
            K = rng.randint(0, 3)
            assert (repr(asym_neg_int(p, n, K))
                    == repr(_reference_asym_neg_int(p, n, m, K))), (a, b, m, n)

    def test_finite_sum_branches_bit_identical(self):
        # eval_auto adds the n terms directly where that is cheaper (at n
        # below about 33 + m on the finite-only branches); where its
        # expansion answers, it must be the explicit entry's bit for bit
        expanded = {"pos": 0, "neg": 0, "conj": 0}

        def check_auto(p, n, want, branch):
            auto = eval_auto(p, n)
            if auto.path == "expansion":
                assert _report_fields(auto) == want, (p, n)
                expanded[branch] += 1

        for rng, a, b in self._draws(12, 300):
            n = self._index(rng)
            m = rng.randint(1, 6)
            p = ParamSet(a, b, a + b + m)
            want = _reference_fields(_reference_pos_int(p, n, m), p)
            assert _report_fields(eval_pos_int(p, n)) == want, (a, b, m)
            check_auto(p, n, want, "pos")
            p = ParamSet(a, b, a + b - m)
            want = _reference_fields(_reference_neg_int(p, n, m), p)
            assert _report_fields(eval_neg_int(p, n)) == want, (a, b, m)
            check_auto(p, n, want, "neg")
            p_int = rng.randint(1, m)
            p = ParamSet(complex(p_int), b, p_int + b - m)
            cls = p.branch
            assert (cls.m, cls.p) == (m, p_int)
            want = _reference_fields(_reference_conjectured(p, n, m, p_int), p)
            assert _report_fields(eval_conjectured(p, n)) == want, (p_int, b, m)
            check_auto(p, n, want, "conj")
        assert min(expanded.values()) > 100, expanded
