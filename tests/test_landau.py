"""Tests for the Landau constant routes.

Frozen reference values were computed with mpmath at 35 significant
digits from the defining sum of squared central-binomial weights.
"""

import functools
import math
from fractions import Fraction

import mpmath as mp
import pytest

from hypersum import coeffs, landau, oracle, params
from hypersum._series import predicted_terms
from hypersum.complexfn import EULER_GAMMA, digamma
from hypersum.errors import DomainError, InvalidParameterError
from hypersum.landau import (
    landau_asymptotic,
    landau_ck,
    landau_direct,
    landau_nemes,
    landau_theorem3,
    landau_watson,
    landau_watson_asymptotic,
)

G_2 = 1.390625
G_10 = 1.8223893427202711
G_50 = 2.3162577233525203
G_100 = 2.5345272637222256


def rel(x, ref):
    return abs(x - ref) / abs(ref)


class TestDirect:
    def test_first_values_exact(self):
        assert landau_direct(0) == 1.0
        assert landau_direct(1) == 1.25
        assert landau_direct(2) == G_2

    def test_frozen(self):
        assert rel(landau_direct(10), G_10) <= 1e-15
        assert rel(landau_direct(50), G_50) <= 1e-15
        assert rel(landau_direct(100), G_100) <= 1e-15

    def test_monotone_increasing(self):
        vals = [landau_direct(n) for n in range(8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bad_index(self):
        with pytest.raises(InvalidParameterError):
            landau_direct(-1)
        with pytest.raises(InvalidParameterError):
            landau_direct(2.0)
        with pytest.raises(InvalidParameterError):
            landau_direct(True)


class TestConvergentSeries:
    def test_watson_matches_direct(self):
        for n in (5, 10, 20, 50):
            assert rel(landau_watson(n), landau_direct(n)) <= 1e-13

    def test_ck_matches_direct(self):
        for n in (5, 10, 20, 50):
            assert rel(landau_ck(n), landau_direct(n)) <= 1e-13

    def test_small_index_fallback(self):
        # The kernels decay too slowly at tiny n; both routes must still
        # answer, agreeing with the plain sum.
        assert abs(landau_watson(0) - 1.0) <= 1e-12
        assert abs(landau_ck(0) - 1.0) <= 1e-12

    def test_direct_sum_answers_below_index_14(self, monkeypatch):
        # 14 is the first index where both series' predicted counts at
        # rel_tol 1e-15, scaled by 1 + max(|a|, |b|) = 3/2, fall to the
        # index; the counts fall as the index grows
        def series_longer(n):
            return (predicted_terms(n + 3.0, 1e-15) * 1.5 > n
                    or predicted_terms(n + 2.5, 1e-15) * 1.5 > n)

        first = next(n for n in range(1000) if not series_longer(n))
        assert first == landau._FIRST_SERIES_INDEX == 14
        assert not any(series_longer(n) for n in range(first, 10**4))
        calls = []
        monkeypatch.setattr(landau, "landau_direct",
                            lambda n: calls.append(n) or 1.0)
        for route in (landau_watson, landau_ck):
            route(13)
            route(14)
        assert calls == [13, 13]

    def test_series_answer_without_direct_sum(self, monkeypatch):
        # From index 14 both routes run their own series; with the direct
        # sum unavailable they must still meet the reference.
        def refuse(n):
            raise AssertionError(f"landau_direct({n}) called")

        monkeypatch.setattr(landau, "landau_direct", refuse)
        for n in (20, 50):
            ref = oracle.landau_ref(n).as_complex().real
            assert rel(landau_watson(n), ref) <= 1e-13
            assert rel(landau_ck(n), ref) <= 1e-13


class TestTheorem3:
    def test_returns_value_and_bound(self):
        v, b = landau_theorem3(51, 10)
        assert b > 0.0
        assert abs(v - G_50) <= b

    def test_bound_below_the_double_range(self):
        # remainder_bound's log is -811.1 here: the bound is reported as
        # the smallest positive double, and the value still answers, as it
        # does at M = 20 with a bound of 4.7e-267
        n = 1175361495472162
        value, bound = landau_theorem3(n, 27)
        shallow, shallow_bound = landau_theorem3(n, 20)
        assert bound == 5e-324
        assert shallow_bound == pytest.approx(4.68e-267, rel=1e-2)
        assert abs(value - shallow) <= 2e-15 * shallow
        assert value == pytest.approx(12.1117409969, rel=1e-11)

    def test_bound_honest_across_depths(self):
        ref = landau_direct(100)
        for M in (3, 5, 8, 10):
            v, b = landau_theorem3(101, M)
            assert abs(v - ref) <= b

    def test_bound_shrinks_with_depth(self):
        # Only guaranteed well inside the n >> M regime; at small n the
        # factorial growth of the depth constant can win.
        _, shallow = landau_theorem3(201, 5)
        _, deep = landau_theorem3(201, 10)
        assert deep < shallow

    def test_bound_decays_with_index(self):
        _, near = landau_theorem3(51, 5)
        _, far = landau_theorem3(102, 5)
        assert far < near / 16.0

    def test_index_shift(self):
        # landau_theorem3(n, M) targets the constant of index n - 1.
        v, _ = landau_theorem3(101, 10)
        assert rel(v, G_100) <= 1e-12

    def test_cached_tables_match_exact_ones(self):
        # landau_theorem3 reads sigma_k at (1/2, 1/2) from tables built
        # once; they must be the exact values rounded to floats
        half = Fraction(1, 2)
        assert landau._sigma_half(1) == ()
        for M in range(2, 31):
            exact = coeffs.sigma_coeffs(half, half, M - 1).values
            assert landau._sigma_half(M) == tuple(map(float, exact)), M

    def test_c0_constant_is_the_closed_form(self):
        # c_0(1/2, 1/2) = (gamma + 4 log 2) / pi, written once as a
        # constant; it must hold to the double's rounding, and agree with
        # the general c0 route to that route's own accuracy
        with mp.workdps(40):
            want = (mp.euler + 4 * mp.log(2)) / mp.pi
            assert abs(mp.mpf(landau._C0_HALF) - want) <= 2e-16 * want
        assert abs(landau._C0_HALF - coeffs.c0(0.5, 0.5)) <= 1e-15

    def test_needs_large_index(self):
        for n, M in ((10, 10), (3, 8), (2, 10), (1, 1)):
            with pytest.raises(DomainError, match="need n > M"):
                landau_theorem3(n, M)

    def test_bad_index(self):
        for bad in (0, -3, 2.5, True, "51"):
            with pytest.raises(InvalidParameterError, match="n must be"):
                landau_theorem3(bad, 10)

    def test_bad_depth(self):
        for bad in (0, -3, 2.5, True, "10"):
            with pytest.raises(InvalidParameterError, match="M must be"):
                landau_theorem3(51, bad)
        # a huge M is refused by the cap, never reaching gamma_ratio,
        # where Gamma(M + 1/2)^2 would overflow
        for n, M in ((51, 31), (2 * 10**6, 10**6)):
            with pytest.raises(InvalidParameterError,
                               match=r"^M must be an integer in 1\.\.30, got "):
                landau_theorem3(n, M)

    def test_bound_is_remainder_bound(self):
        for n, M in ((2, 1), (51, 10), (101, 3), (31, 30), (10**6, 12)):
            _, bound = landau_theorem3(n, M)
            assert repr(bound) == repr(coeffs.remainder_bound(n, M))

    def test_index_checks_per_call(self, monkeypatch):
        # the depth is checked here, n and n > M in remainder_bound; the
        # only other is sigma_coeffs' one on a cold call, since the tail
        # takes rearranged_tail's unchecked core
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return params._check_index(*args, **kwargs)

        for module in (landau, coeffs):
            monkeypatch.setattr(module, "_check_index", spy)
        monkeypatch.setattr(landau, "_sigma_half",
                            functools.cache(landau._sigma_half.__wrapped__))
        landau_theorem3(51, 10)
        assert len(calls) <= 4, calls
        calls.clear()
        landau_theorem3(51, 10)
        assert len(calls) <= 3, calls


class TestAsymptotic:
    def test_matches_direct_at_moderate_index(self):
        assert rel(landau_asymptotic(51, 6), G_50) <= 1e-12

    def test_deeper_is_closer(self):
        ref = landau_direct(50)
        errs = [abs(landau_asymptotic(51, K) - ref) for K in (1, 3, 6)]
        assert errs[2] < errs[1] < errs[0]

    def test_shared_form_bit_identical(self):
        # The estimate is written once over coeffs' arithmetic namespace
        # (verify runs it in mpmath); in double it must reproduce the
        # written-out formula bit for bit.
        c_list = coeffs.c_coeffs().values
        c0 = landau._C0_HALF
        for n in range(1, 201):
            want = digamma(n + 1.0).real / math.pi + c0
            for K in range(7):
                if K:
                    want += ((-1.0) ** K * float(c_list[K - 1])
                             / (math.pi * float(n) ** K))
                assert repr(landau_asymptotic(n, K)) == repr(want), (n, K)

    def test_depth_cap(self):
        with pytest.raises(InvalidParameterError):
            landau_asymptotic(50, 7)
        with pytest.raises(InvalidParameterError):
            landau_asymptotic(50, -1)


class TestWatsonAsymptotic:
    def test_three_term_accuracy(self):
        # Remainder is cubic in 1/n.
        assert abs(landau_watson_asymptotic(50) - G_50) <= 1e-6
        assert abs(landau_watson_asymptotic(100) - G_100) <= 2e-7

    def test_is_nemes_at_unit_shift_and_depth_two(self):
        # The three-term estimate is Nemes' at h = 1, K = 2, from index 0,
        # where g_1(1) = 1/4 and g_2(1) = -5/192 give Watson's printed form
        # bit for bit.
        pi = math.pi
        for n in range(0, 2001):
            u = n + 1.0
            watson = ((math.log(u) + EULER_GAMMA + 4.0 * math.log(2.0)) / pi
                      - 1.0 / (4.0 * pi * u) + 5.0 / (192.0 * pi * u * u))
            assert landau_watson_asymptotic(n) == landau_nemes(n, 1.0, 2), n
            assert landau_watson_asymptotic(n) == watson, n


class TestNemes:
    def test_default_shift(self):
        assert abs(landau_nemes(50) - G_50) <= 1e-8
        assert abs(landau_nemes(100) - G_100) <= 1e-9

    def test_other_shifts(self):
        for h in (0.25, 0.5, 1.25):
            assert abs(landau_nemes(50, h=h) - G_50) <= 1e-7

    def test_shift_domain(self):
        with pytest.raises(DomainError):
            landau_nemes(5, h=0.0)
        with pytest.raises(DomainError):
            landau_nemes(5, h=1.5)

    def test_depth_cap(self):
        with pytest.raises(InvalidParameterError):
            landau_nemes(5, K=4)

    def test_shift_must_be_a_real_number(self):
        for h in (1j, 1 + 0j, "1", None):
            with pytest.raises(InvalidParameterError,
                               match="^h must be a real number, got "):
                landau_nemes(5, h)

    def test_real_shift_answers_as_its_float(self):
        for h, x in ((1, 1.0), (Fraction(1, 2), 0.5), (Fraction(1, 3), 1 / 3),
                     (True, 1.0)):
            assert landau_nemes(5, h) == landau_nemes(5, x), h
        assert landau_nemes(5, 1.0) == 1.6236124917240125

    def test_non_finite_shift_is_a_bad_parameter(self):
        # as a non-finite parameter is everywhere else, not a DomainError
        for h in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParameterError, match="must be finite"):
                landau_nemes(5, h)


def test_inverse_power_routes_answer_at_a_huge_index():
    # n^k past the double range and n + 1 past the ceiling are not formed:
    # every correction underflows, and each route gives the log estimate
    from hypersum.complexfn import _MAX_INDEX

    for n in (10 ** 300, _MAX_INDEX):
        want = (math.log(n) + EULER_GAMMA + 4.0 * math.log(2.0)) / math.pi
        for got in (landau_asymptotic(n, 6), landau_asymptotic(n, 2),
                    landau_nemes(n), landau_watson_asymptotic(n),
                    landau_watson(n)):
            assert rel(got, want) <= 4e-16, (n, got)


class TestCrossRoute:
    def test_five_routes_at_fifty(self):
        vals = [
            landau_direct(50),
            landau_watson(50),
            landau_ck(50),
            landau_theorem3(51, 10)[0],
            landau_asymptotic(51, 6),
        ]
        spread = max(vals) - min(vals)
        assert spread <= 5e-12
