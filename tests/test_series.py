import math
import random

import pytest

from hypersum import _series, engine
from hypersum._series import (
    SeriesResult,
    sum_alt_kernel,
    sum_direct,
    sum_hyp3f2,
    sum_psi_kernel,
)
from hypersum.coeffs import asym_log, asym_neg_int
from hypersum.complexfn import (EULER_GAMMA, digamma, exp_log, gamma_ratio,
                                log_gamma, nonpos_int_distance)
from hypersum.engine import (eval_auto, eval_conjectured, eval_neg_int,
                             eval_pos_int)
from hypersum.errors import DivergentSeriesError, InvalidParameterError
from hypersum.params import ParamSet, _log_seq_ratios, classify_params


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

    def test_divergent_raises(self):
        # excess = sum(den) - sum(num) <= 0 and non-terminating
        with pytest.raises(DivergentSeriesError):
            sum_hyp3f2([2.0, 2.0, 1.0], [1.5, 2.5])

    def test_denominator_pole_raises(self):
        with pytest.raises(InvalidParameterError):
            sum_hyp3f2([0.5, 0.5, 1.0], [-3.0, 1.75])

    def test_max_terms_flag(self):
        res = sum_hyp3f2([1.0, 1.0, 1.0], [2.5, 2.5], max_terms=50)
        assert res.hit_max
        assert res.terms_used == 50
        # the estimate must cover the abandoned tail
        full = sum_hyp3f2([1.0, 1.0, 1.0], [2.5, 2.5])
        assert abs(res.value - full.value) <= res.est_error

    def test_arity_enforced_by_engine_wrapper(self):
        from hypersum.engine import f32_unit

        with pytest.raises(InvalidParameterError):
            f32_unit([0.5, 0.5], [12.0, 1.75])


class TestPsiKernel:
    def test_against_oracle(self):
        from hypersum.oracle import oracle_eval

        # kernel value backing S_40(1/3, 2/3; 1): frozen from the 40-digit run
        res = sum_psi_kernel(1.0 / 3.0, 2.0 / 3.0, 41.0)
        assert isinstance(res, SeriesResult)
        assert res.est_error < 1e-12
        ref = oracle_eval(("partial_sum", 1.0 / 3.0, 2.0 / 3.0, 1.0, 40))
        # reassemble the partial sum the way the engine does
        from hypersum.complexfn import gamma_ratio

        lam = gamma_ratio([40 + 1.0 / 3.0, 40 + 2.0 / 3.0], [40.0, 41.0])
        pref = gamma_ratio([1.0], [1.0 / 3.0, 2.0 / 3.0])
        got = lam * pref * res.value
        assert abs(got - ref.as_complex()) <= 5e-14 * abs(got)


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


def _reference_tail(term_abs, k, decay):
    if decay <= 1.0:
        return math.inf
    return term_abs * max(1.0, k / (decay - 1.0))


def _reference_run(term_abs_first, step, rel_tol, max_terms, decay, start_k,
                   first_term):
    acc = _ReferenceSum()
    acc.add(first_term)
    peak, below, k, hit_max = term_abs_first, 0, start_k, False
    tail = _reference_tail(term_abs_first, max(k, 1), decay)
    drift = 0.0
    while True:
        if k - start_k + 1 >= max_terms:
            hit_max = True
            break
        term = step(k)
        if term == 0.0:
            tail = 0.0
            break
        k += 1
        acc.add(term)
        t_abs = abs(term)
        peak = max(peak, t_abs)
        drift += t_abs * (k - start_k)
        tail = _reference_tail(t_abs, k, decay)
        if tail <= rel_tol * abs(acc.total):
            below += 1
            if below >= 3:
                break
        else:
            below = 0
    return SeriesResult(acc.total, k - start_k + 1,
                        _series._estimate(tail, peak, drift), hit_max)


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


def _fields(res):
    # repr tells -0.0 from 0.0 and compares nan to nan
    return (repr(res.value), res.terms_used, repr(res.est_error), res.hit_max)


class TestInlinedLoops:
    def test_bit_identical_to_reference_loop(self, monkeypatch):
        rng = random.Random(3)
        runs = 0
        for i in range(400):
            cplx = i % 2 == 1
            a, b, c = (complex(rng.uniform(-5.0, 5.0),
                               rng.uniform(-5.0, 5.0) if cplx else 0.0)
                       for _ in range(3))
            n = rng.randint(2, 200)
            rel_tol = 10.0 ** rng.uniform(-15.0, -6.0)
            cap = rng.choice((2000, 40, 3, 1))
            w = n + a + b
            calls = (
                lambda: sum_psi_kernel(a, b, w, rel_tol, cap),
                lambda: sum_alt_kernel(a, b, w, rel_tol, cap),
                lambda: sum_hyp3f2((c - a, c - b, 1.0), (n + c, 1.0 + c - a - b),
                                   rel_tol, cap),
            )
            for call in calls:
                try:
                    got = call()
                except DivergentSeriesError:
                    continue
                with monkeypatch.context() as m:
                    m.setattr(_series, "_run", _reference_run)
                    want = call()
                assert _fields(got) == _fields(want), (a, b, c, n)
                runs += 1
            assert (_fields(sum_direct(a, b, c, n))
                    == _fields(_reference_direct(a, b, c, n))), (a, b, c, n)
        assert runs > 1000

    def test_terminating_sums_match_reference_loop(self, monkeypatch):
        # an exact zero term stops the loop; with excess -2 the tail
        # estimate is infinite until it does
        for num, den in (((-2.0, 1.0, 1.0), (5.0, 7.0)),
                         ((-3.0, 4.0, 4.0 + 1j), (1.5, 1.5))):
            got = sum_hyp3f2(num, den)
            with monkeypatch.context() as m:
                m.setattr(_series, "_run", _reference_run)
                want = sum_hyp3f2(num, den)
            assert _fields(got) == _fields(want), num


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
    return pref * total, m, abs(pref) * absum * engine._rel_floor(size)


def _reference_neg_int(p, n, m):
    a, b, c = p.a, p.b, p.c
    term = 1.0 + 0.0j
    finite = term
    absum = 1.0
    for k in range(m - 1):
        term = term * (c - a + k) * (c - b + k) / ((n + c + k) * (1 - m + k))
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
    est = (abs(pref2) * ker.est_error
           + (abs(head) + abs(pref1) * absum) * engine._rel_floor(size1)
           + abs(tail) * engine._rel_floor(size2))
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
    est = abs(pref) * absum * engine._rel_floor(size)
    return pref * total, m - p_int + 1, est


def _report_fields(rep):
    return (repr(rep.value), rep.terms_used, repr(rep.est_error))


def _reference_fields(ref):
    value, terms, est = ref
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
        expanded = 0
        for rng, a, b in self._draws(12, 300):
            n = self._index(rng)
            m = rng.randint(1, 6)
            p = ParamSet(a, b, a + b + m)
            want = _reference_fields(_reference_pos_int(p, n, m))
            assert _report_fields(eval_pos_int(p, n)) == want, (a, b, m)
            assert _report_fields(eval_auto(p, n)) == want, (a, b, m)
            p = ParamSet(a, b, a + b - m)
            want = _reference_fields(_reference_neg_int(p, n, m))
            assert _report_fields(eval_neg_int(p, n)) == want, (a, b, m)
            auto = eval_auto(p, n)
            if auto.path == "expansion":
                assert _report_fields(auto) == want, (a, b, m)
                expanded += 1
            p_int = rng.randint(1, m)
            p = ParamSet(complex(p_int), b, p_int + b - m)
            cls = classify_params(p)
            assert (cls.m, cls.p) == (m, p_int)
            want = _reference_fields(_reference_conjectured(p, n, m, p_int))
            assert _report_fields(eval_conjectured(p, n)) == want, (p_int, b, m)
            assert _report_fields(eval_auto(p, n)) == want, (p_int, b, m)
        assert expanded > 100
