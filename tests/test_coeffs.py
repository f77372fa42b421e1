import cmath
import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum import coeffs, oracle, verification
from hypersum._series import finite_sum
from hypersum.coeffs import (
    a_coeffs,
    asym_log,
    asym_neg_int,
    c0,
    c_coeffs,
    g_poly,
    lambda_series,
    rearranged_tail,
    remainder_bound,
    sigma_coeffs,
)
from hypersum.errors import (DomainError, InvalidParameterError, PoleError,
                             WrongBranchError)
from hypersum.params import ParamSet

HALF = Fraction(1, 2)

GOLDEN_SIGMA = (Fraction(3), Fraction(23, 6), Fraction(43, 10),
                Fraction(647, 140), Fraction(6131, 1260),
                Fraction(70171, 13860))
GOLDEN_C = (Fraction(3, 4), Fraction(7, 64), Fraction(-3, 128),
            Fraction(-91, 8192), Fraction(75, 8192), Fraction(641, 131072))


class TestSigma:
    def test_golden_half_pair(self):
        assert sigma_coeffs(HALF, HALF, 6).values == GOLDEN_SIGMA

    def test_exact_arithmetic_for_exact_inputs(self):
        values = sigma_coeffs(Fraction(1, 3), Fraction(1, 4), 4).values
        assert all(isinstance(v, Fraction) for v in values)

    def test_float_inputs_track_exact(self):
        exact = sigma_coeffs(Fraction(1, 3), Fraction(1, 4), 4).values
        approx = sigma_coeffs(1.0 / 3.0, 0.25, 4).values
        for e, g in zip(exact, approx):
            assert abs(complex(g) - float(e)) <= 1e-13 * abs(float(e))

    def test_pole_rejected(self):
        with pytest.raises(PoleError):
            sigma_coeffs(-2, HALF, 4)  # a + r hits zero at r = 2

    def test_non_finite_parameter_rejected(self):
        # as ParamSet refuses them; NaN passed the pole test and gave NaN
        # coefficients
        for a, b in ((math.nan, 0.5), (0.5, complex(0.0, math.nan)),
                     (math.inf, 0.5)):
            with pytest.raises(InvalidParameterError, match="must be finite"):
                sigma_coeffs(a, b, 2)


class TestCZero:
    def test_half_pair(self):
        want = (0.5772156649015329 + 4.0 * math.log(2.0)) / math.pi
        assert c0(0.5, 0.5).real == pytest.approx(want, rel=1e-13)

    def test_symmetry(self):
        x, y = c0(0.75, 0.3), c0(0.3, 0.75)
        assert abs(x - y) <= 1e-13 * abs(x)

    def test_text_is_refused(self):
        for a, b in (("0.5", 0.5), (0.5, b"0.5")):
            with pytest.raises(InvalidParameterError,
                               match="must be a number, got "):
                c0(a, b)


class TestAC:
    def test_a_half_pair_matches_negated_c(self):
        a_vals = a_coeffs(HALF, HALF).values
        assert tuple(a_vals) == tuple(-v for v in GOLDEN_C[:3])

    def test_c_golden(self):
        assert c_coeffs().values == GOLDEN_C

    def test_double_range(self):
        # Past the double range A raises, as the engine does; a non-finite
        # input is a bad parameter, not a range fault; exact inputs stay
        # exact at any size.
        for a, b in ((1e200, 1e200), (complex(1e200), 0.5)):
            with pytest.raises(DomainError):
                a_coeffs(a, b)
        for a, b in ((math.inf, 0.5), (math.nan, 0.5)):
            with pytest.raises(InvalidParameterError, match="a must be finite"):
                a_coeffs(a, b)
        big = Fraction(10 ** 200)
        assert a_coeffs(big, big).values[0] == big * big - 2 * big


class TestG:
    def test_values_at_one(self):
        assert g_poly(1, 1) == Fraction(1, 4)
        assert g_poly(2, 1) == Fraction(-5, 192)
        assert g_poly(3, 1) == Fraction(-3, 128)

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=-2, max_value=4))
    def test_shift_symmetry(self, h):
        for k in (1, 2, 3):
            assert g_poly(k, h) == (-1) ** k * g_poly(k, Fraction(3, 2) - h)

    def test_bad_k(self):
        for k in (4, 0, True, 1.0):
            with pytest.raises(InvalidParameterError):
                g_poly(k, HALF)

    def test_float_stays_float(self):
        # landau_nemes takes float(g_poly(k, h))
        assert type(g_poly(2, 0.75)) is float
        assert g_poly(2, 0.75) == pytest.approx(float(g_poly(2, Fraction(3, 4))),
                                                rel=1e-15)


class TestLambdaSeries:
    def test_half_pair_depth(self):
        got = lambda_series(0.5, 0.5, 10, 5)
        assert got.real == pytest.approx(1 - 1 / 40 + 1 / 3200 + 1 / 128000
                                         - 5 / 20480000 - 23 / 819200000,
                                         rel=1e-15)

    def test_half_pair_approaches_lambda(self):
        from hypersum.params import seq_factors

        lam = seq_factors(ParamSet(0.5, 0.5, 1.0), 50).lambda_n.real
        est = lambda_series(0.5, 0.5, 50, 5).real
        assert abs(est - lam) < 1e-11

    def test_general_pair_depth_two(self):
        got = lambda_series(1.0 / 3.0, 2.0 / 3.0, 40, 2)
        ab = 2.0 / 9.0
        want = 1 - ab / 40 + ab * (1.0 / 3.0 + 2.0 / 3.0 - 1 + ab) / 3200
        assert got.real == pytest.approx(want, rel=1e-15)

    def test_double_range(self):
        # The general pair's coefficients past the double range raise, as
        # the engine does; so does the estimate built from them.  A
        # non-finite input is a bad parameter instead.
        from hypersum.coeffs import _lambda_coeffs

        for a, b, error in ((1e200, 1e200, DomainError),
                            (Fraction(10 ** 200), 1, DomainError),
                            (math.nan, 0.5, InvalidParameterError),
                            (0.5, complex(0.0, math.inf),
                             InvalidParameterError)):
            with pytest.raises(error):
                _lambda_coeffs(a, b)
            with pytest.raises(error):
                lambda_series(a, b, 10, 1)

    def test_inverse_powers_underflow_at_a_huge_index(self):
        # n^k past the double range: each correction is the 0 it rounds to
        from hypersum.complexfn import _MAX_INDEX

        for n in (10 ** 300, _MAX_INDEX):
            assert lambda_series(0.5, 0.25, n, 2) == 1.0
            want = asym_log(0.5, 0.25, n, 0)
            assert asym_log(0.5, 0.25, n, 2) == want
            assert math.isfinite(want.real)

    def test_depth_caps(self):
        with pytest.raises(InvalidParameterError,
                           match=r"^order must be an integer in 0\.\.5, got 6$"):
            lambda_series(0.5, 0.5, 10, 6)
        with pytest.raises(InvalidParameterError,
                           match=r"^order must be an integer in 0\.\.2, got 3$"):
            lambda_series(0.25, 0.5, 10, 3)


class TestRemainderBound:
    def test_value(self):
        assert remainder_bound(51, 5) == pytest.approx(4.3672772935364033e-06,
                                                       rel=1e-10)

    def test_halving(self):
        ratio = remainder_bound(402, 5) / remainder_bound(201, 5)
        assert math.log2(ratio) == pytest.approx(-5.0, abs=0.2)

    def test_domain(self):
        with pytest.raises(DomainError):
            remainder_bound(10, 10)

    def test_below_the_double_range_is_the_least_double(self):
        # Gamma ratio at Re log -811.1 and about -1e3: still bounded above
        # by the smallest positive double
        assert remainder_bound(1175361495472162, 27) == 5e-324
        assert remainder_bound(10**15, 30) == 5e-324
        with pytest.raises(DomainError, match="above the double range"):
            remainder_bound(400, 399)

    def test_exact_offset_past_two_to_the_53(self):
        # Gamma(n-M)/Gamma(n) from the offset -M itself: n - M and n rounded
        # to double apart gave 4.5e-129 at the first n (under the true
        # bound) and the constant 4/pi^2 Gamma(M+1/2)^2 = 33589 at the second
        import mpmath as mp

        for n, M in ((40648965799806026, 6), (10 ** 17, 6)):
            with mp.workdps(40):
                want = (4 / mp.pi ** 2 * mp.gamma(M + mp.mpf(0.5)) ** 2
                        * mp.exp(mp.loggamma(n - M) - mp.loggamma(n)))
            assert remainder_bound(n, M) == pytest.approx(float(want),
                                                          rel=1e-12), n
        assert repr(remainder_bound(21, 10)) == "0.7763755967634477"
        assert repr(remainder_bound(12, 10)) == "13040.004523238875"


class TestAsymLog:
    def test_against_frozen_sum(self):
        # S_20(1/3, 2/3; 1) = 1.8896625074153495
        for K, budget in ((1, 2e-4), (2, 2e-6), (3, 4e-8)):
            est = asym_log(1.0 / 3.0, 2.0 / 3.0, 20, K)
            assert abs(est - 1.8896625074153495) < budget

    def test_depth_cap(self):
        with pytest.raises(InvalidParameterError,
                           match=r"^K must be an integer in 0\.\.3, got 4$"):
            asym_log(0.5, 0.5, 20, 4)

    def test_malformed_depth(self):
        # a K that is no depth at all is refused by the same check as one
        # past the three printed A_k
        p = ParamSet(1.5, -0.25, 0.25)
        for K in (-1, True, 2.0):
            with pytest.raises(InvalidParameterError):
                asym_log(0.5, 0.5, 20, K)
            with pytest.raises(InvalidParameterError):
                asym_neg_int(p, 5, K)


class TestAsymNegInt:
    def test_against_frozen_sum(self):
        p = ParamSet(1.5, -0.25, 0.25)  # s = -1
        # S_5(1.5, -0.25; 0.25) = -3.617588141025641
        est = asym_neg_int(p, 5, 3)
        assert abs(est - (-3.617588141025641)) < 2e-4

    def test_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            asym_neg_int(ParamSet(0.5, 0.25, 1.5), 10, 2)

    def test_finite_sum_capped_at_max_terms(self):
        # s = -2e6: the finite sum would have 2e6 terms, past the default
        # cap of 10^6, so it is refused before any term is summed (summed,
        # it overflows in the prefactor after about a second)
        with pytest.raises(DomainError, match="max_terms"):
            asym_neg_int(ParamSet(0.3, 0.4, 0.7 - 2e6), 100, 2)


# Each asymptotic form at one depth K alone, over any _Arith: one pass of
# _asym_log or _asym_neg_int must return these at every depth 0..K.

def _one_depth_log(ns, a, b, n, K):
    pref = ns.gamma_ratio([a + b], [a, b])
    A = coeffs._a_formulas(a, b)
    corr = 0.0 + 0.0j
    for k in range(1, K + 1):
        corr += (-1) ** (k - 1) * A[k - 1] / ns.real(n) ** k
    return pref * ns.digamma(n + a + b) + coeffs._c0(ns, a, b) + pref * corr


def _one_depth_neg_int(ns, a, b, c, n, m, K):
    finite, _ = finite_sum(c - a, c - b, n + c, 1 - m, m)
    first = finite * ns.seq_ratio(n, a, b, c) * ns.gamma_ratio([c], [a, b]) / m
    A = coeffs._a_formulas(a, b)
    bracket = ns.digamma(n + a + b) - ns.euler - ns.digamma(a) - ns.digamma(b)
    for k in range(1, K + 1):
        bracket += (-1) ** (k - 1) * A[k - 1] / ns.real(n) ** k
    sign = -1.0 if m % 2 else 1.0
    return first + sign * ns.gamma_ratio([c], [c - a, c - b, m + 1]) * bracket


class TestDepthEntries:
    # (a, b, n, m): real and complex pairs; c = a + b - m on the
    # negative-integer form, none of them degenerate
    DRAWS = ((0.3, 0.45, 20, 1), (1.5, 0.35, 50, 2), (-2.3, 4.15, 7, 3),
             (0.5 + 1j, 0.25, 100, 2), (1.2 - 0.7j, -0.4 + 2.1j, 10 ** 5, 4))

    def test_grid_rows_at_40_digits(self):
        arith = verification._mp_arith()
        rows = verification.LOG_ROWS + verification.NEG_ROWS
        with mp.workdps(40):
            for exact, n, _ in rows:
                a, b, *c = (oracle._mp_of(verification._exact_pair(x))
                            for x in exact)
                if c:
                    c, = c
                    m = int(mp.nint(a + b - c).real)
                    got = coeffs._asym_neg_int(arith, a, b, c, n, m, 3)
                    want = [_one_depth_neg_int(arith, a, b, c, n, m, K)
                            for K in range(4)]
                else:
                    got = coeffs._asym_log(arith, a, b, n, 3)
                    want = [_one_depth_log(arith, a, b, n, K)
                            for K in range(4)]
                assert len(got) == 4
                for K, (g, w) in enumerate(zip(got, want)):
                    assert type(g) is type(w) and g == w, (exact, n, K)

    def test_double_draws(self):
        ns = coeffs._DOUBLE
        for a, b, n, m in self.DRAWS:
            a, b = complex(a), complex(b)
            logs = coeffs._asym_log(ns, a, b, n, 3)
            negs = coeffs._asym_neg_int(ns, a, b, a + b - m, n, m, 3)
            p = ParamSet(a, b, a + b - m)
            for K in range(4):
                assert (repr(logs[K]) == repr(_one_depth_log(ns, a, b, n, K))
                        == repr(asym_log(a, b, n, K))), (a, b, n, K)
                assert (repr(negs[K])
                        == repr(_one_depth_neg_int(ns, a, b, a + b - m, n, m,
                                                   K))
                        == repr(asym_neg_int(p, n, K))), (a, b, n, m, K)

    def test_table_errors_forms_each_row_once(self, monkeypatch):
        # one pass per grid row: 3 digammas (18 in all, against 54 for a
        # pass per depth), one gamma ratio per logarithmic row and two per
        # negative-integer row, one sequence ratio per negative-integer row
        arith, counts = verification._mp_arith(), Counter()

        def counted(name):
            def call(*args):
                counts[name] += 1
                return getattr(arith, name)(*args)
            return call

        names = ("gamma_ratio", "digamma", "seq_ratio")
        counting = arith._replace(**{name: counted(name) for name in names})
        monkeypatch.setattr(verification, "_mp_arith", lambda: counting)
        rows, ok = verification.table_errors()
        assert ok and len(rows) == 6
        assert counts == {"digamma": 18, "gamma_ratio": 9, "seq_ratio": 3}


class TestRearrangedTail:
    # lambda_60 * (harmonic-weighted double tail) at (1/2,1/2), 50-digit run
    LAM_F = 6.9442033513811508e-05

    def test_matches_double_tail(self):
        got = rearranged_tail(0.5, 0.5, 60, 8)
        # the first omitted term has r = K = 4: ~ 2 ((1/2)_4)^2/4 * 60^-8
        assert abs(got - self.LAM_F) < 1.3e-13

    def test_deeper_is_closer(self):
        shallow = abs(rearranged_tail(0.5, 0.5, 60, 8) - self.LAM_F)
        deep = abs(rearranged_tail(0.5, 0.5, 60, 10) - self.LAM_F)
        assert deep < shallow / 50

    def test_domain(self):
        with pytest.raises(DomainError):
            rearranged_tail(0.5, 0.5, 4, 10)

    def test_pole_of_the_pochhammer_denominator(self):
        # (n+a+b)_r, r < K = 3, vanishes at n + a + b = 0 and -1
        for a in (-10.5, -11.5, -10.5 + 1e-13):
            with pytest.raises(PoleError, match="n\\+a\\+b"):
                rearranged_tail(a, 0.5, 10, 6)
        # farther left the factors it takes stay off zero
        assert cmath.isfinite(rearranged_tail(-12.5, 0.5, 10, 6))
