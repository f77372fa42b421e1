import cmath
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersum import cli, coeffs, complexfn, params
from hypersum.complexfn import nonpos_int_distance
from hypersum.engine import (
    EvalReport,
    Tolerance,
    eval_auto,
    eval_conjectured,
    eval_generic,
    eval_log,
    eval_neg_int,
    eval_pos_int,
    leading_term,
)
from hypersum.errors import (
    DomainError,
    InvalidParameterError,
    PoleError,
    WrongBranchError,
)
from hypersum.oracle import compare, partial_sum_ref
from hypersum.params import ParamSet, _log_seq_ratios


def rel(x, want):
    return abs(x - want) / abs(want)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rel_tol == 1e-15
        assert tol.max_terms == 1_000_000

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            Tolerance(rel_tol=0.0)
        with pytest.raises(InvalidParameterError):
            Tolerance(max_terms=0)
        with pytest.raises(InvalidParameterError):
            Tolerance(max_terms=True)


class TestGeneric:
    def test_short_sum(self):
        p = ParamSet(2.0, 0.5, 4.25)  # s = 1.75
        rep = eval_generic(p, 7)
        assert rel(rep.value, 1.4583492161585467) < 1e-13
        assert rep.branch.kind == "generic"

    def test_longer_sum(self):
        p = ParamSet(2.0, 0.5, 4.25)
        rep = eval_generic(p, 30)
        assert rel(rep.value, 1.5131677836801687) < 1e-13

    def test_unit_index(self):
        rep = eval_generic(ParamSet(2.0, 0.5, 4.25), 1)
        assert rep.value == 1.0 + 0.0j
        assert rep.terms_used == 1
        assert rep.est_error == 0.0

    def test_vanishing_gauss_piece(self):
        # c - a a nonpositive integer: the closed term is exactly zero and
        # the correction series terminates
        p = ParamSet(2.0, 0.5, 1.0)
        assert rel(eval_generic(p, 3).value, 3.125) < 1e-13
        assert rel(eval_generic(p, 12).value, 18.052188873291016) < 1e-13

    def test_capped_series_is_flagged_and_covered(self):
        # s = 0.5: the correction series at n = 2 decays too slowly for the
        # default cap; the report must say so and the estimate must cover
        p = ParamSet(1.0, 1.0, 2.5)
        rep = eval_generic(p, 2)
        assert any("max_terms" in w for w in rep.warnings)
        assert abs(rep.value - 1.4) <= rep.est_error
        assert rep.est_error < 1e-9

    def test_wrong_branch_rejected(self):
        with pytest.raises(WrongBranchError):
            eval_generic(ParamSet(0.5, 0.5, 1.0), 5)

    def test_est_error_covers(self):
        p = ParamSet(0.75, 0.25, 2.6)
        rep = eval_generic(p, 20)
        err = compare(rep.value, partial_sum_ref(0.75, 0.25, 2.6, 20))
        assert err.abs_err <= rep.est_error

    def test_underflowed_tail_leaves_the_gauss_piece(self):
        # The tail's prefactor has log modulus -134747, far below the double
        # range, so S_n is the Gauss piece, whose log is -5.50.  Its four
        # log-gamma values reach 2.8e5 in modulus, and est_error must carry
        # their rounding (4e-11 relative here).
        a, b, c = -3e4 + 0.3j, 0.5, 1.2
        rep = eval_auto(ParamSet(a, b, c), 10**6)
        assert rep.path == "expansion" and rep.warnings == ()
        with mp.workdps(40):
            A, B, C = mp.mpc(a), mp.mpf(b), mp.mpf(c)
            gauss = complex(mp.exp(mp.loggamma(C) + mp.loggamma(C - A - B)
                                   - mp.loggamma(C - A) - mp.loggamma(C - B)))
        assert abs(rep.value - gauss) <= rep.est_error
        assert rep.est_error <= 1e-9 * abs(gauss)

    def test_underflowed_whole_answer_is_a_domain_error(self):
        # c - b = -2 zeroes the Gauss piece, so the underflowed tail is all
        # of S_n, and S_n lies below the double range.
        with pytest.raises(DomainError, match="below the double range"):
            eval_auto(ParamSet(-3e4 + 0.3j, 3.2, 1.2), 10**6)

    def test_underflowed_gauss_piece_leaves_the_tail(self):
        # Gamma(c) Gamma(s) decays like e^(-pi |Im|) and Gamma(c-a) Gamma(c-b)
        # do not, so log |Gauss piece| = -752.6, below the double range; the
        # tail, ~1e149, is the answer.
        a, b, c = 0.3 + 240j, 0.4 + 240j, 0.9 + 240j
        rep = eval_auto(ParamSet(a, b, c), 1000)
        assert rep.path == "expansion"
        err = compare(rep.value, partial_sum_ref(a, b, c, 1000))
        assert err.abs_err <= rep.est_error

    @pytest.mark.parametrize("a, b, c, n", [(150.5, 150.5, 0.7, 10**6),
                                            (170.3, 170.4, 1.2, 10**3)])
    def test_answer_above_the_double_range_is_a_domain_error(self, a, b, c,
                                                             n):
        # log |tail prefactor| = 2944 and 966
        with pytest.raises(DomainError, match="above the double range"):
            eval_auto(ParamSet(a, b, c), n)

    def test_far_left_parameter_returns(self):
        # log Gamma(a) at a = -1e15 + 0.5i reflects; lifting never returned
        rep = eval_auto(ParamSet(-1e15 + 0.5j, 0.5, 1.2), 10**18)
        assert rep.path == "expansion"
        assert math.isfinite(abs(rep.value)) and math.isfinite(rep.est_error)


class TestLog:
    def test_real_pair(self):
        p = ParamSet(1.0 / 3.0, 2.0 / 3.0, 1.0)
        rep = eval_log(p, 20)
        assert rel(rep.value, 1.8896625074153495) < 1e-13

    def test_complex_pair(self):
        p = ParamSet(0.5 + 1j, 0.25, 0.75 + 1j)
        rep = eval_log(p, 12)
        want = 1.7247741028331527 + 0.19346088408429105j
        assert rel(rep.value, want) < 1e-13

    def test_alternative_form_agrees(self):
        p = ParamSet(1.0 / 3.0, 2.0 / 3.0, 1.0)
        one = eval_log(p, 20, form="psi_series")
        two = eval_log(p, 20, form="alternative")
        assert rel(one.value, two.value.real) < 1e-13

    def test_bad_form_rejected(self):
        with pytest.raises(InvalidParameterError):
            eval_log(ParamSet(0.5, 0.5, 1.0), 5, form="fourier")

    def test_alternative_head_needs_no_c0(self, monkeypatch):
        # the head is the prefactor times psi(w) - gamma - psi(a) - psi(b),
        # formed from values the body already has
        def refuse(*args):
            raise AssertionError("coeffs.c0 called")

        monkeypatch.setattr(coeffs, "c0", refuse)
        monkeypatch.setattr(coeffs, "_c0", refuse)
        rep = eval_log(ParamSet(1.0 / 3.0, 2.0 / 3.0, 1.0), 20,
                       form="alternative")
        assert cmath.isfinite(rep.value)

    def test_half_pair_is_pi_times_landau(self):
        from hypersum.landau import landau_direct

        rep = eval_log(ParamSet(0.5, 0.5, 1.0), 11)
        assert rel(rep.value.real, landau_direct(10)) < 1e-12


class TestPosInt:
    def test_finite_exact(self):
        p = ParamSet(1.75, 0.25, 4.0)  # s = 2
        rep = eval_pos_int(p, 9)
        assert rel(rep.value, 1.188784317163325) < 5e-14
        assert rep.terms_used == 2  # m-term closed sum

    @pytest.mark.parametrize("a, b, c, n, want", [
        (-1.5, -1.5, 1.0, 3, 3.390625),
        (-1.5, -1.5, 1.0, 2, 3.25),
        (-2.5, -2.5, 1.0, 5, None),
        (-1.5, -1.5 + 1e-7, 1.0 + 1e-7, 3, None),  # n+a+b = 1e-7
    ])
    def test_n_plus_a_plus_b_at_or_near_a_pole(self, a, b, c, n, want):
        # The finite sum divides by (n+a+b)_k: eval_auto adds the n terms
        # directly, and the expansion refuses.
        p = ParamSet(a, b, c)
        rep = eval_auto(p, n)
        assert rep.branch.kind == "positive_integer"
        assert rep.path == "direct_sum"
        assert compare(rep.value, partial_sum_ref(a, b, c, n)).abs_err \
            <= rep.est_error
        if want is not None:
            assert rep.value == want
        with pytest.raises(DomainError, match="n\\+a\\+b"):
            eval_pos_int(p, n)

    def test_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            eval_pos_int(ParamSet(0.5, 0.25, 1.5), 5)


class TestNegInt:
    def test_m1(self):
        p = ParamSet(1.5, -0.25, 0.25)  # s = -1
        rep = eval_neg_int(p, 5)
        assert rel(rep.value, -3.617588141025641) < 1e-12

    def test_m2(self):
        p = ParamSet(3.0, 0.5, 1.5)  # s = -2, not degenerate (a > m)
        rep = eval_neg_int(p, 6)
        assert rel(rep.value, 8.2043290043290042) < 1e-12

    def test_degenerate_routed_away(self):
        with pytest.raises(WrongBranchError) as info:
            eval_neg_int(ParamSet(1.0, 0.5, -0.5), 10)
        assert "eval_conjectured" in str(info.value)


def _poch(x, k):
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


class TestConjectured:
    def test_closed_value(self):
        p = ParamSet(1.0, 0.5, -0.5)  # s = -2, a = 1 <= m
        rep = eval_conjectured(p, 10)
        assert rel(rep.value, -80.0) < 1e-12
        assert rep.warnings == p.branch.warnings

    def test_wrong_branch(self):
        with pytest.raises(WrongBranchError):
            eval_conjectured(ParamSet(3.0, 0.5, 1.5), 6)

    def test_exact_parameter_ends_the_sum(self):
        # a = p = m: one term, and no tail or psi kernel to run
        rep = eval_conjectured(ParamSet(2e6, 0.5, 0.5), 10)
        assert rep.terms_used == 1

    def test_closed_form_is_an_identity(self):
        # a = p, c = b - q, q = m - p.  The closed form, with Gamma(n+a) /
        # Gamma(n) = (n)_p, Gamma(n+b) / Gamma(n+c) = (n+c)_q and Gamma(c) /
        # (Gamma(p) Gamma(b)) = 1 / ((p-1)! (c)_q), and S_n are polynomials in
        # n of degree m, and times (c)_q polynomials in b of degree <= q; so
        # exact agreement at n = 1..m+1 and q+1 values of b proves it for
        # this (m, p).
        points = 0
        for m in range(1, 9):
            for p in range(1, m + 1):
                q = m - p
                for j in range(q + 1):
                    b = j + Fraction(1, 3)
                    c = b - q
                    for n in range(1, m + 2):
                        t = total = Fraction(1)
                        for k in range(n - 1):
                            t = t * (p + k) * (b + k) / ((c + k) * (k + 1))
                            total += t
                        finite = sum(
                            _poch(p - m, k) * _poch(b - m, k)
                            / (_poch(n + c, k) * _poch(1 - m, k))
                            for k in range(q + 1))
                        closed = (_poch(n, p) * _poch(n + c, q) * finite
                                  / (math.factorial(p - 1) * _poch(c, q) * m))
                        assert total == closed, (m, p, b, n)
                        points += 1
        assert points == 870

    @pytest.mark.parametrize("a, b, m", [
        (2 + 5e-10, 0.3, 3), (2 - 3e-10, 0.3, 3), (1 + 8e-10, 0.5, 2),
        (0.7, 1 + 2e-10, 1)])
    def test_error_within_estimate_next_to_the_line(self, a, b, m):
        # classified degenerate, but off p by more than POLE_TOL: the tail,
        # of the size of that distance, stays in the answer, and eval_auto
        # prices the psi kernel it runs, so n = 50 is cheaper summed directly
        c = a + b - m
        p = ParamSet(a, b, c)
        assert p.branch.kind == "degenerate_negative_integer"
        for n in (50, 200, 1000):
            ref = partial_sum_ref(a, b, c, n)
            auto, expansion = eval_auto(p, n), eval_conjectured(p, n)
            assert auto.path == ("direct_sum" if n == 50 else "expansion"), n
            assert expansion.path == "expansion", n
            for rep in (auto, expansion):
                err = compare(rep.value, ref).abs_err
                assert err <= rep.est_error, (n, err / rep.est_error)


def _pole_distance(z):
    return abs(z - min(round(z.real), 0))


def _draw_triple(rng, branch, complex_draw, offset=None):
    """Admissible (a, b, c) on `branch`, or generic in the near-integer band
    for branch "band", |s - m| = offset when given; the drawn parameters are
    complex when complex_draw."""
    while True:
        a, b = (complex(rng.uniform(-5.0, 5.0),
                        rng.uniform(-5.0, 5.0) if complex_draw else 0.0)
                for _ in range(2))
        m = rng.randint(1, 4)
        if branch == "generic":
            c = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
                        if complex_draw else 0.0)
        elif branch == "band":
            off = 10.0 ** rng.uniform(-9.0, -4.0) if offset is None else offset
            c = a + b + rng.randint(-3, 3) + off * rng.choice((-1.0, 1.0))
        elif branch == "logarithmic":
            c = a + b
        elif branch == "positive_integer":
            c = a + b + m
        elif branch == "negative_integer":
            c = a + b - m
        else:
            a = complex(rng.randint(1, m))
            c = a + b - m
        # on the degenerate line c - b = a - m is a pole by construction
        near = (a, b, c, c - a) + (() if branch == "degenerate" else (c - b,))
        if min(_pole_distance(z) for z in near) < 0.1:
            continue
        s = c - a - b
        if branch == "generic" and abs(s - round(s.real)) < 1e-4:
            continue
        return a, b, c


def _log_seq_ratio_mp(n, a, b, x):
    # log Gamma(n+a) Gamma(n+b) / (Gamma(n) Gamma(n+x)) at the exact offsets
    with mp.workdps(60):
        a, b, x = (mp.mpc(v) for v in (a, b, x))
        return (mp.loggamma(n + a) + mp.loggamma(n + b) - mp.loggamma(n)
                - mp.loggamma(n + x))


class TestPrefactors:
    @pytest.mark.parametrize("n", (2, 40, 10**3, 10**6, 10**15))
    def test_fused_prefactors_match_gamma_ratio(self, n):
        # omega_n (x = c) and lambda_n (x = a+b), formed in log space from
        # the exact offsets, against mpmath's ratio at those offsets.  The
        # bar is 1e-13 relative, or two roundings of the two pair logs'
        # size (|a| + |b-x|) log n where that is larger (n = 10^15): no
        # double sum of those logs can beat it.
        rng = random.Random(n)
        for complex_draw in (False, False, False, True, True, True):
            a, b, c = _draw_triple(rng, "generic", complex_draw)
            for x, got in zip((c, a + b), _log_seq_ratios(n, a, b, c, a + b)):
                with mp.workdps(60):
                    d = mp.mpc(got) - _log_seq_ratio_mp(n, a, b, x)
                    # the two sums of logs may differ by a multiple of 2 pi i
                    d -= 2j * mp.pi * mp.nint(d.imag / (2 * mp.pi))
                    err = float(abs(d))
                size = (abs(a) + abs(b - x)) * math.log(n)
                bar = max(1e-13, 2 * 2.0 ** -52 * size)
                assert err <= bar, (a, b, x, n)


class TestExactOffsets:
    # Each pair n+a, n+b, n+c, n+a+b rounded to double before its log-gamma
    # difference was formed put the true error of these cases 14x to 101x
    # above est_error.  The last case's pair (b, a+b) straddles the real
    # axis, so it runs the reflection path of log_gamma_diff.
    @pytest.mark.parametrize("a, b, c, n", (
        (-0.40216621311913836, 4.822184505243064, 1.6480044029755403, 1118),
        (-0.40216621311913836, 4.822184505243064, 1.6480044029755403, 10**4),
        (3.918785034578247, 1.5968403365034933,
         0.6698941462656571 + 0.6699489453381515j, 1165),
        (1.4954613552549834 - 4.90795061445615j,
         3.8123385892215538 + 1.8648385417907978j, None, 2984),
    ))
    def test_error_within_estimate(self, a, b, c, n):
        if c is None:
            c = a + b
        rep = eval_auto(ParamSet(a, b, c), n)
        assert rep.path == "expansion"
        err = compare(rep.value, partial_sum_ref(a, b, c, n))
        assert err.abs_err <= rep.est_error, err.abs_err / rep.est_error


def _generic_formula_mp(a, b, c, n):
    """S_n by the generic formula at 40 digits: the Gauss piece minus
    omega_n Gamma(c) / (Gamma(a) Gamma(b) s) times the 3F2(1) tail, with
    every gamma function taken by mp.loggamma at the exact parameters and
    the tail summed term by term (mp.hyp3f2 at unit argument can be wrong
    when 1 + s < 0)."""
    with mp.workdps(40):
        a, b, c = (mp.mpc(v) for v in (a, b, c))
        s = c - a - b
        gauss = mp.exp(mp.loggamma(c) + mp.loggamma(s) - mp.loggamma(c - a)
                       - mp.loggamma(c - b))
        pref = mp.exp(mp.loggamma(n + a) + mp.loggamma(n + b) - mp.loggamma(n)
                      - mp.loggamma(n + c) + mp.loggamma(c) - mp.loggamma(a)
                      - mp.loggamma(b)) / s
        term = total = mp.mpf(1)
        k = 0
        while abs(term) > mp.mpf(10) ** -40 * abs(total):
            term *= (c - a + k) * (c - b + k) / ((n + c + k) * (1 + s + k))
            total += term
            k += 1
        return complex(gauss - pref * total)


class TestBracketRounding:
    @pytest.mark.parametrize("form", ["psi_series", "alternative"])
    def test_cancelling_bracket_covered(self, form):
        # At this logarithmic case the bracket psi(w) - gamma - psi(a)
        # - psi(b) = 9.372 - 0.577 - 6.380 - 2.382 cancels to 0.0325, and
        # its rounding (5.2e-14 relative against mpmath) was outside
        # est_error: err/est read 1.30 and 3.82 before the bound counted it.
        a, b = -4.1834384439975025, -1.3372799049085848
        n = 11_761
        p = ParamSet(a, b, a + b)
        rep = eval_log(p, n, form=form)
        err = compare(rep.value, partial_sum_ref(a, b, a + b, n))
        assert err.abs_err <= rep.est_error
        if form == "psi_series":
            assert eval_auto(p, n).est_error == rep.est_error


class TestBeyondTheOracle:
    # At n = 10^15 the pair logarithms in omega_n reach (|a| + |b-c|) log n
    # ~ 300, and their rounding alone is up to 1.3e-13 relative.  The first
    # case read err/est 1.05 when est_error's floor was a fixed 1e-13; the
    # second reads 1.11 when the floor counts the log-gamma values but not
    # the pair logarithms.
    @pytest.mark.parametrize("a, b, c", (
        (4.855082298257978 - 2.6535956512896153j,
         2.2546518624127243 - 4.153197695835158j,
         -3.3030585820561242 + 4.109877835080679j),
        (-3.0411531033260775 - 3.916563008694504j,
         1.3583847652278962 + 0.4428143737443957j,
         -3.13523488023285 + 4.558230794391179j),
        *(_draw_triple(random.Random(f"1e15 {i}"), "generic", i % 2 == 1)
          for i in range(6)),
    ), ids=["fixed_floor", "pair_logs", *(f"draw{i}" for i in range(6))])
    def test_error_within_estimate_at_n_1e15(self, a, b, c):
        n = 10**15
        rep = eval_auto(ParamSet(a, b, c), n)
        assert rep.path == "expansion"
        err = abs(rep.value - _generic_formula_mp(a, b, c, n))
        assert err <= rep.est_error, err / rep.est_error

    # With parameters of modulus ~300 the log-gamma values summed into each
    # prefactor reach ~1e3, and their rounding does too; these cases read
    # err/est 18.4, 25 and 13.2 when est_error's floor ignored that size.
    @pytest.mark.parametrize("a, b, c, n", (
        (70.47151227966998 - 223.9804604698382j,
         -298.9350826784792 + 222.8428468345693j,
         -174.32617050292927 - 170.71129846516064j, 10**4),
        (8.394258372311185 + 224.7978679473198j,
         291.20581050322085 + 190.13267468767714j,
         282.4856971687003 - 82.59392999075905j, 10**9),
        (28.14439844310883 - 257.2689805761197j,
         269.63758797167304 - 5.3038756909371045j,
         280.72086603477226 - 267.74310760442546j, 10**4),
    ))
    def test_error_within_estimate_at_large_parameters(self, a, b, c, n):
        rep = eval_auto(ParamSet(a, b, c), n)
        assert rep.path == "expansion"
        err = abs(rep.value - _generic_formula_mp(a, b, c, n))
        assert err <= rep.est_error, err / rep.est_error


class TestOracleAtLargeIndex:
    # The oracle's fixed-point sum makes 10^4 to 10^5 terms cheap enough for
    # tier-1: est_error is held at n = 10^5 on every branch, and on both
    # sides of the near-integer band edge |s - m| = 1e-4.
    @pytest.mark.parametrize("branch, complex_draw", (
        ("generic", True), ("logarithmic", False), ("positive_integer", True),
        ("negative_integer", False), ("degenerate", True),
    ))
    def test_error_within_estimate_at_top_index(self, branch, complex_draw):
        n = 10**5
        a, b, c = _draw_triple(random.Random(branch), branch, complex_draw)
        rep = eval_auto(ParamSet(a, b, c), n)
        assert rep.path == "expansion"
        err = compare(rep.value, partial_sum_ref(a, b, c, n))
        assert err.abs_err <= rep.est_error, err.abs_err / rep.est_error

    @pytest.mark.parametrize("n", (10**3, 10**4))
    @pytest.mark.parametrize("offset", (5e-5, 0.99e-4, 1.01e-4, 2e-4))
    def test_error_within_estimate_at_band_edge(self, n, offset):
        rng = random.Random(f"{n} {offset}")
        for complex_draw in (False, True, False, True, False, True):
            a, b, c = _draw_triple(rng, "band", complex_draw, offset)
            rep = eval_auto(ParamSet(a, b, c), n)
            where = (a, b, c, n)
            assert rep.branch.kind == "generic", where
            assert ("near_integer_excess" in rep.warnings) == (offset < 1e-4)
            err = compare(rep.value, partial_sum_ref(a, b, c, n))
            assert err.abs_err <= rep.est_error, (where, err.abs_err / rep.est_error)


class TestAuto:
    def test_text_parameters_are_refused(self):
        # "1.7" once answered as the number 1.7: the ParamSet eval_auto is
        # given refuses it before any branch is chosen
        with pytest.raises(InvalidParameterError,
                           match="^c must be a number, got '1.7'$"):
            eval_auto(ParamSet(0.5, 0.5, "1.7"), 20)

    def test_dispatch_matches_direct_calls(self):
        cases = (
            (ParamSet(2.0, 0.5, 4.25), 7, eval_generic, "direct_sum"),
            (ParamSet(1.0 / 3.0, 2.0 / 3.0, 1.0), 20, eval_log, "direct_sum"),
            (ParamSet(1.0 / 3.0, 2.0 / 3.0, 1.0), 100, eval_log, "expansion"),
            (ParamSet(1.75, 0.25, 4.0), 9, eval_pos_int, "direct_sum"),
            (ParamSet(1.75, 0.25, 4.0), 100, eval_pos_int, "expansion"),
            (ParamSet(1.5, -0.25, 0.25), 5, eval_neg_int, "direct_sum"),
            (ParamSet(1.0, 0.5, -0.5), 10, eval_conjectured, "direct_sum"),
            (ParamSet(1.0, 0.5, -0.5), 100, eval_conjectured, "expansion"),
            (ParamSet(2.0, 0.5, 4.25), 40, eval_generic, "direct_sum"),
            (ParamSet(2.0, 0.5, 4.25), 100, eval_generic, "expansion"),
            (ParamSet(1.5, -0.25, 0.25), 100, eval_neg_int, "expansion"),
        )
        for p, n, fn, path in cases:
            auto, explicit = eval_auto(p, n), fn(p, n)
            assert auto.path == path
            if path == "expansion":
                assert auto.value == explicit.value
            else:
                ref = partial_sum_ref(p.a, p.b, p.c, n)
                assert compare(auto.value, ref).abs_err <= auto.est_error
                assert (abs(auto.value - explicit.value)
                        <= auto.est_error + explicit.est_error)

    def test_terms_bounded_and_error_covered(self):
        # The small-n rule keeps every answer near n terms (the predicted
        # count is within 8x of the real one), whichever path it takes.
        rng = random.Random(1)
        kinds = {"band": "generic", "degenerate": "degenerate_negative_integer"}
        for branch in ("generic", "band", "logarithmic", "positive_integer",
                       "negative_integer", "degenerate"):
            for n in (2, 3, 5, 8, 13, 20, 40, 100):
                for complex_draw in (False, False, True, True):
                    a, b, c = _draw_triple(rng, branch, complex_draw)
                    rep = eval_auto(ParamSet(a, b, c), n)
                    where = f"{branch} a={a} b={b} c={c} n={n} {rep.path}"
                    assert rep.branch.kind == kinds.get(branch, branch), where
                    bar = max(8 * n, (rep.branch.m or 0) + 1)
                    assert rep.terms_used <= bar, where
                    if n <= 40:
                        err = compare(rep.value, partial_sum_ref(a, b, c, n))
                        assert err.abs_err <= rep.est_error, where

    def test_small_n_answers_by_direct_sum(self):
        # eval_generic runs this tail series into the term cap (see
        # test_capped_series_is_flagged_and_covered); two terms suffice
        rep = eval_auto(ParamSet(1.0, 1.0, 2.5), 2)
        assert abs(rep.value - 1.4) <= rep.est_error
        assert rep.terms_used == 2
        assert rep.path == "direct_sum"
        assert not any("max_terms" in w for w in rep.warnings)

    @pytest.mark.parametrize("branch", ["positive_integer", "degenerate"])
    def test_finite_branches_answer_small_n_directly(self, branch):
        # their prefactors cost about 33 direct terms, so up to n = 20 the
        # n terms answer
        rng = random.Random(17)
        for n in (2, 5, 10, 20):
            for complex_draw in (False, False, True, True):
                a, b, c = _draw_triple(rng, branch, complex_draw)
                rep = eval_auto(ParamSet(a, b, c), n)
                where = (a, b, c, n)
                assert rep.path == "direct_sum", where
                err = compare(rep.value, partial_sum_ref(a, b, c, n))
                assert err.abs_err <= rep.est_error, where

    @pytest.mark.parametrize("branch, explicit", [
        ("positive_integer", eval_pos_int), ("degenerate", eval_conjectured)])
    def test_finite_branches_expand_at_large_n(self, branch, explicit):
        rng = random.Random(19)
        for n in (100, 1000, 10**5):
            for complex_draw in (False, True):
                a, b, c = _draw_triple(rng, branch, complex_draw)
                p = ParamSet(a, b, c)
                auto, want = eval_auto(p, n), explicit(p, n)
                assert auto.path == "expansion", (a, b, c, n)
                assert (repr(auto.value), repr(auto.est_error), auto.terms_used,
                        auto.warnings) == (repr(want.value),
                                           repr(want.est_error),
                                           want.terms_used, want.warnings)

    @pytest.mark.parametrize("call, answers", [
        # a positive-integer excess of 10^15: its finite sum has m terms
        ("eval_auto(ParamSet(0.5, 0.5, 1e15 + 1), 1000)", True),
        # degenerate with m - p + 1 ~ 10^100; its direct sum overflows
        ("eval_auto(ParamSet(1e100, 1e100, 0.5), 5)", False),
        ("eval_conjectured(ParamSet(1e100, 1e100, 0.5), 5)", False),
        # direct-sum terms overflow to inf - inf = nan
        ("eval_auto(ParamSet(1e200 + 0.5j, 3e199, 0.5), 5)", False),
    ])
    def test_huge_parameters_return_or_raise(self, call, answers):
        # in a subprocess, so that a hang fails the test instead of the run
        code = ("from hypersum.engine import eval_auto, eval_conjectured\n"
                "from hypersum.errors import DomainError\n"
                "from hypersum.params import ParamSet\n"
                "try:\n"
                f"    rep = {call}\n"
                "except DomainError as err:\n"
                "    print('DomainError:', err)\n"
                "else:\n"
                "    print(repr(rep.value), repr(rep.est_error))\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        if answers:
            value, est = done.stdout.split()
            assert cmath.isfinite(complex(value)) and math.isfinite(float(est))
        else:
            assert done.stdout.startswith("DomainError:"), done.stdout

    @pytest.mark.parametrize("c, n, path", [
        (0.75 - 200, 150, "direct_sum"), (0.75 - 200, 400, "expansion"),
        (0.75 + 200, 150, "direct_sum"), (0.75 + 200, 300, "expansion")])
    def test_finite_sum_terms_priced(self, c, n, path):
        # s = -200 or +200: the expansion's finite sum alone has 200 terms
        rep = eval_auto(ParamSet(0.5, 0.25, c), n)
        assert rep.path == path
        if path == "direct_sum":
            err = compare(rep.value, partial_sum_ref(0.5, 0.25, c, n))
            assert err.abs_err <= rep.est_error

    def test_finite_sum_capped_at_max_terms(self):
        p = ParamSet(0.5, 0.25, -19.25)  # s = -20
        assert eval_neg_int(p, 200).terms_used > 20
        with pytest.raises(DomainError, match="max_terms = 10"):
            eval_neg_int(p, 200, Tolerance(max_terms=10))

    def test_direct_sum_obeys_max_terms(self):
        # s = 10^15: 10^6 direct terms are cheaper than the 10^15-term
        # finite sum, but they are past max_terms, so the expansion answers
        # and refuses its finite sum
        with pytest.raises(DomainError, match="max_terms = 1000"):
            eval_auto(ParamSet(0.5, 0.5, 1e15 + 1), 10**6,
                      Tolerance(max_terms=1000))

    def test_expansion_answers_past_max_terms(self):
        # the 50 direct terms are cheaper, but past max_terms = 5; the
        # generic tail series stops at that cap and says so
        p = ParamSet(0.5, 0.5, 30.7)
        assert eval_auto(p, 50).path == "direct_sum"
        rep = eval_auto(p, 50, Tolerance(max_terms=5))
        assert rep.path == "expansion" and rep.terms_used == 5
        assert rep.warnings == ("max_terms_reached",)
        err = compare(rep.value, partial_sum_ref(0.5, 0.5, 30.7, 50))
        assert err.abs_err <= rep.est_error

    def test_large_n_never_takes_direct_sum(self):
        # n direct terms cost more than any expansion of these parameters
        rng = random.Random(5)
        for branch in ("generic", "band", "logarithmic", "negative_integer"):
            for n in (1000, 1001, 10**4, 10**6):
                for complex_draw in (False, True):
                    a, b, c = _draw_triple(rng, branch, complex_draw)
                    rep = eval_auto(ParamSet(a, b, c), n)
                    assert rep.path == "expansion", (branch, a, b, c, n)

    def test_parameters_validated_once(self, monkeypatch):
        # ParamSet validates each parameter through params._parameter; an
        # eval call on it validates nothing again.
        seen = []
        validate = params._parameter

        def counted(z, name):
            seen.append(name)
            return validate(z, name)

        monkeypatch.setattr(params, "_parameter", counted)
        for (a, b, c), n in (((2.0, 0.5, 4.25), 7), ((2.0, 0.5, 4.25), 100),
                             ((1.0 / 3.0, 2.0 / 3.0, 1.0), 100),
                             ((1.5, -0.25, 0.25), 100), ((1.0, 0.5, -0.5), 10)):
            seen.clear()
            eval_auto(ParamSet(a, b, c), n)
            assert seen == ["a", "b", "c"], (a, b, c, n)
        seen.clear()
        eval_generic(ParamSet(2.0, 0.5, 4.25), 100)
        assert seen == ["a", "b", "c"]

    def test_report_shape(self):
        rep = eval_auto(ParamSet(2.0, 0.5, 4.25), 7)
        assert isinstance(rep, EvalReport)
        assert isinstance(rep.terms_used, int)
        assert rep.est_error >= 0.0

    def test_near_integer_excess_warning_propagates(self):
        rep = eval_auto(ParamSet(0.5, 0.25, 1.75 + 1e-6), 10)
        assert any("near_integer_excess" in w for w in rep.warnings)
        err = compare(rep.value, partial_sum_ref(0.5, 0.25, 1.75 + 1e-6, 10))
        assert err.abs_err <= rep.est_error

    def test_bad_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            eval_auto(ParamSet(2.0, 0.5, 4.25), 0)
        with pytest.raises(InvalidParameterError):
            eval_auto(ParamSet(2.0, 0.5, 4.25), 2.5)


# Inputs whose series' tail bound applies only from an index past the term
# cap: (a, b, c, n, that index).  They were found by a fuzz of eval_auto,
# where each summed its 10^6 terms for 1-3 s and returned a NaN estimate or
# value.  generic (n + c = -1.79e7); negative integer, m = 8 (n + a + b =
# -4.59e6); logarithmic, s snapped to 0 (n + a + b = -1.12e6; its terms
# overflowed); negative integer, real, next to a gamma pole of c - a.
UNPROVABLE_TAILS = [
    (-0.2683318283277032, 4313.54258201372 - 0.21404063073620275j,
     -25942379.106268995, 8045093, 25946693),
    (-8310978.993303888 - 12900.009996302624j, -0.9109342079346394,
     -8310987.9042380955 - 12900.009996302624j, 3721556, 8310980),
    (-2834509.288472149, 0.002911438355753578 - 1.7713568592419588e-06j,
     -2834509.285560711 - 1.7713568592419588e-06j, 1710611, 2834511),
    (-2.661351302750992, -73052583.999999, -73052593.66135031, 41186777,
     73052585),
]


class TestUnprovableTail:
    @pytest.mark.parametrize("a, b, c, n, first", UNPROVABLE_TAILS)
    def test_refused_at_once(self, a, b, c, n, first):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"term index {first} on"):
            eval_auto(ParamSet(a, b, c), n)
        assert time.perf_counter() - start < 0.5

    def test_explicit_cap_below_the_bound(self):
        # the psi kernel's bound holds from index 22 (Re a = -20.3); with
        # ten terms allowed it is refused, and by default it answers
        p = ParamSet(-20.3, 0.4, -19.9)
        with pytest.raises(DomainError,
                           match="index 22 on, past its last index 9"):
            eval_log(p, 100, Tolerance(max_terms=10))
        rep = eval_log(p, 100)
        err = compare(rep.value, partial_sum_ref(-20.3, 0.4, -19.9, 100))
        assert err.abs_err <= rep.est_error

    def test_terminating_series_is_not_refused(self):
        # c - a = -3 ends the generic tail after 4 terms, though n + c puts
        # its bound's first index near 2e6
        c = -2000000.25
        rep = eval_generic(ParamSet(c + 3, 0.4, c), 1000)
        assert rep.terms_used == 4 and math.isfinite(rep.est_error)

    def test_infinite_estimate_is_refused(self):
        # a cap of 3 terms stops the series before its bound is finite
        with pytest.raises(DomainError, match="est_error inf"):
            eval_generic(ParamSet(0.5, 0.5 + 30j, 0.3 + 10j), 5,
                         Tolerance(max_terms=3))


# Exact-excess draws for the error-bar property: parts on a 2^-20 grid, so
# that c = a + b + s is exact in double precision and every branch sees
# its excess as drawn.  Real parts keep a fractional part in [0.1, 0.9], so
# a and b stay off the poles.
_GRID = 2.0 ** -20


def _grid_part(lo, hi):
    return st.integers(round(lo / _GRID), round(hi / _GRID)).map(
        lambda k: k * _GRID)


def _off_integer(draw, lo, hi):
    return draw(st.integers(lo, hi)) + draw(_grid_part(0.1, 0.9))


@st.composite
def _exact_excess_draw(draw):
    kind = draw(st.sampled_from((params.GENERIC, params.LOGARITHMIC,
                                 params.POSITIVE_INTEGER,
                                 params.NEGATIVE_INTEGER,
                                 params.DEGENERATE_NEG_INTEGER)))
    imag = draw(st.booleans())
    a, b = (complex(_off_integer(draw, -5, 4),
                    draw(_grid_part(-3.0, 3.0)) if imag else 0.0)
            for _ in range(2))
    m = draw(st.integers(1, 4))
    if kind == params.GENERIC:
        s = _off_integer(draw, -4, 3)
    elif kind == params.LOGARITHMIC:
        s = 0.0
    elif kind == params.POSITIVE_INTEGER:
        s = float(m)
    else:
        s = -float(m)
        if kind == params.DEGENERATE_NEG_INTEGER:
            # c - b = p - m sits on a pole: the tail vanishes
            a = complex(draw(st.integers(1, m)))
    c = a + b + s
    near = [c] if kind == params.DEGENERATE_NEG_INTEGER else [c, c - a,
                                                             c - b]
    assume(min(map(nonpos_int_distance, near)) >= 0.05)
    return kind, ParamSet(a, b, c), draw(st.integers(100, 10_000))


class TestErrorBarProperty:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_exact_excess_draw())
    def test_true_error_within_estimate(self, draw):
        # every branch, real and complex, on the expansion path: the true
        # error against the oracle stays within est_error
        kind, p, n = draw
        assert p.branch.kind == kind
        rep = eval_auto(p, n)
        assume(rep.path == "expansion")
        err = compare(rep.value, partial_sum_ref(p.a, p.b, p.c, n))
        assert err.abs_err <= rep.est_error, (p, n)


class TestLeadingTerm:
    def test_logarithmic(self):
        got = leading_term(ParamSet(1.0 / 3.0, 2.0 / 3.0, 1.0), 40)
        assert rel(got, 1.0168929173903911) < 1e-13

    def test_positive_excess_is_gauss_value(self):
        got = leading_term(ParamSet(2.0, 0.5, 4.25), 30)
        assert rel(got, 1.5194805194805139) < 1e-13

    def test_negative_excess(self):
        got = leading_term(ParamSet(1.5, -0.25, 0.25), 50)
        assert rel(got, -41.731342083703645) < 1e-13

    def test_one_exponent(self):
        # n^(-s) alone is e^11411.8, past the double range, while the whole
        # term's log is -404.2
        p = ParamSet(1000.5, 1000.5, 0.25)
        got = leading_term(p, 300)
        with mp.workdps(40):
            s = mp.mpf(0.25) - 2001
            want = (mp.exp(mp.loggamma(0.25) - 2 * mp.loggamma(1000.5)
                           - s * mp.log(300)) / -s)
        assert rel(got, complex(want)) < 1e-11
        # the whole log past the range still refuses
        with pytest.raises(DomainError, match="leading term lies above"):
            leading_term(ParamSet(300.5, 300.5, 0.25), 10**6)

    def test_tiny_real_excess_rejected(self):
        p = ParamSet(0.5, 0.5, 1.0 + 1e-12 + 0.5j)  # generic, Re s ~ 1e-12
        with pytest.raises(DomainError):
            leading_term(p, 40)

    def test_grows_like_log(self):
        p = ParamSet(0.5, 0.5, 1.0)
        l40 = leading_term(p, 40).real
        l80 = leading_term(p, 80).real
        assert (l80 - l40) == pytest.approx(math.log(2.0) / math.pi, rel=1e-12)

    @pytest.mark.parametrize("triple", [
        (2.0, 0.5, 4.25),           # Re s > 0: the Gauss value
        (1.5, -0.25, 0.25),         # s = -1
        (0.8 + 0.3j, 1.5, 0.9),     # Re s < 0, complex
        (2.3, 1.9, 2.2),            # s = -2
        (1.0 / 3.0, 2.0 / 3.0, 1.0),  # s = 0
        (0.5, 0.5, 1.0),            # s = 0
    ], ids=repr)
    def test_leads_the_sum_at_large_n(self, triple):
        # |S_n / leading term - 1| falls at each step up to n = 10^12, until
        # it reaches the double-precision floor; at s = 0 it falls like
        # 1/log n, since S_n = leading term + a constant + o(1)
        p = ParamSet(*triple)
        ns = (10**3, 10**6, 10**9, 10**12)
        gaps = [abs(eval_auto(p, n).value / leading_term(p, n) - 1)
                for n in ns]
        for earlier, later in zip(gaps, gaps[1:]):
            assert later < max(earlier, 1e-14), gaps
        if p.branch.kind == "logarithmic":
            scaled = [g * math.log(n) for g, n in zip(gaps, ns)]
            assert max(scaled) < 1.01 * min(scaled), gaps
        else:
            assert gaps[-1] < 1e-10, gaps


class TestRealTriples:
    def test_real_triples_answer_real(self):
        # S_n of a real triple is real: the imaginary rounding of the
        # complex prefactors is dropped on every path, and the bar, which
        # covered the whole complex value, still holds against the oracle
        rng = random.Random(1)
        checked = 0
        for _ in range(4000):
            a, b, c = (rng.uniform(-20.0, 20.0) for _ in range(3))
            n = rng.choice((150, 1000, 10**5))
            rep = eval_auto(ParamSet(a, b, c), n)
            assert rep.value.imag == 0.0, (a, b, c, n)
            if n <= 1000:
                err = compare(rep.value, partial_sum_ref(a, b, c, n))
                assert err.abs_err <= rep.est_error, (a, b, c, n)
                checked += 1
        assert checked > 2000


def _pole_tests(monkeypatch, call) -> int:
    """How many times call() measures a distance to the poles of Gamma:
    nonpos_int_distance is counted wherever a package module binds it."""
    original = complexfn.nonpos_int_distance
    count = 0

    def counted(z):
        nonlocal count
        count += 1
        return original(z)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hypersum":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    call()
    return count


class TestOnePoleTestPerArgument:
    # ParamSet tests a, b, c, c - a and c - b once each.  Only two bodies
    # add tests of their own: the logarithmic one on a + b and n + a + b,
    # the negative-integer one on n + a + b.
    @pytest.mark.parametrize("triple, n, path, tests", [
        ((0.3 + 0.2j, 1.7, 0.9), 10**4, "expansion", 5),
        ((0.3 + 0.2j, 1.7, 0.9), 5, "direct_sum", 5),
        ((0.5, 0.5, 1.0), 10**4, "expansion", 7),
        ((0.5, 0.5, 1.0), 5, "direct_sum", 5),
        ((2.0, 0.5, 4.5), 1000, "expansion", 5),
        ((2.0, 0.5, 4.5), 5, "direct_sum", 5),
        ((4.0 / 3.0, 1.0 / 3.0, -7.0 / 3.0), 10**4, "expansion", 6),
        ((4.0 / 3.0, 1.0 / 3.0, -7.0 / 3.0), 5, "direct_sum", 5),
        ((1.0, 0.5, -0.5), 1000, "expansion", 5),
        ((1.0, 0.5, -0.5), 5, "direct_sum", 5),
    ], ids=repr)
    def test_eval_auto(self, monkeypatch, triple, n, path, tests):
        reps = []
        got = _pole_tests(monkeypatch,
                          lambda: reps.append(eval_auto(ParamSet(*triple), n)))
        assert reps[0].path == path
        assert got == tests

    def test_eval_form_classifies_once(self, monkeypatch):
        out = io.StringIO()
        got = _pole_tests(monkeypatch, lambda: cli.run(
            ["eval", "-a", "0.5", "-b", "0.5", "-c", "1", "-n", "1000",
             "--form", "alt"], out=out))
        assert json.loads(out.getvalue())["path"] == "expansion"
        assert got == 7

    @pytest.mark.parametrize("triple, pole", [
        ((0.7, -2.0 + 1e-9, 0.7 + 5e-13), "c - a"),
        ((-2.0 + 1e-9, 0.7, 0.7 + 5e-13), "c - b"),
    ], ids=repr)
    def test_positive_integer_refuses_a_pole_from_the_record(self, triple,
                                                             pole):
        # s lies within INTEGER_TOL of 2 and c - a (or c - b) within
        # POLE_TOL of 0: the Gauss factor 1/Gamma(c - a) is zero there
        p = ParamSet(*triple)
        assert p.branch.kind == "positive_integer" and p.gamma_pole
        z = p.ca if pole == "c - a" else p.cb
        for call in (lambda: eval_pos_int(p, 1000),
                     lambda: eval_auto(p, 1000)):
            with pytest.raises(PoleError) as info:
                call()
            assert str(info.value) == f"log_gamma pole at z = {z!r}"
