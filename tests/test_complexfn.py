import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum import complexfn
from hypersum.coeffs import asym_log, asym_neg_int, c0, remainder_bound
from hypersum.complexfn import (
    POLE_TOL,
    _log_gamma_diff,
    bernoulli_numbers,
    digamma,
    exp_log,
    gamma,
    gamma_ratio,
    log_gamma,
    nonpos_int_distance,
)
from hypersum.engine import leading_term
from hypersum.errors import DomainError, InvalidParameterError, PoleError
from hypersum.params import ParamSet, seq_factors

EULER = 0.5772156649015329
EPS = 2.0 ** -52


def dist_nonpos_int(z: complex) -> float:
    k = round(z.real)
    if k > 0:
        return abs(z)
    return abs(z - k) if abs(z - k) < abs(z) else abs(z)


# points kept off the pole set
strip = st.complex_numbers(min_magnitude=0, max_magnitude=20,
                           allow_nan=False, allow_infinity=False).filter(
    lambda z: dist_nonpos_int(z) >= 0.1)


class TestGamma:
    def test_integers(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-15)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-15)
        assert gamma(8.0).real == pytest.approx(5040.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        # reflection-free negative half-integers
        assert gamma(-0.5).real == pytest.approx(-2 * math.sqrt(math.pi),
                                                 rel=1e-13)

    def test_complex_golden(self):
        got = gamma(1.5 + 2j)
        want = 0.16591510893899095 + 0.14946347326641948j
        assert abs(got - want) <= 1e-15 * abs(want) * 20

    def test_pole_raises(self):
        for z in (0.0, -1.0, -7.0, -3.0 + 1e-14j):
            with pytest.raises(PoleError):
                gamma(z)

    @pytest.mark.parametrize("text", ["2.5", b"2.5", bytearray(b"2.5")],
                             ids=repr)
    def test_text_is_refused(self, text):
        with pytest.raises(InvalidParameterError,
                           match="^z must be a number, got "):
            gamma(text)

    @settings(max_examples=200, deadline=None)
    @given(strip)
    def test_recurrence(self, z):
        lhs = gamma(z + 1)
        assert abs(lhs - z * gamma(z)) <= 1e-12 * abs(lhs)

    @settings(max_examples=200, deadline=None)
    @given(strip)
    def test_conjugation(self, z):
        assert gamma(z.conjugate()) == gamma(z).conjugate()


class TestLogGamma:
    def test_real_line(self):
        assert log_gamma(10.0).real == pytest.approx(math.lgamma(10.0),
                                                     rel=1e-15)
        assert log_gamma(0.25).real == pytest.approx(math.lgamma(0.25),
                                                     rel=1e-14)

    def test_exp_consistency(self):
        for z in (3.2 + 0.7j, 0.4 - 2.0j, -1.5 + 0.25j):
            assert abs(cmath.exp(log_gamma(z)) - gamma(z)) \
                <= 1e-12 * abs(gamma(z))


class TestDigamma:
    def test_euler(self):
        assert abs(digamma(1.0).real + EULER) <= 1e-13

    def test_half(self):
        want = -EULER - 2.0 * math.log(2.0)
        assert digamma(0.5).real == pytest.approx(want, rel=1e-14)

    def test_complex_golden(self):
        got = digamma(0.5 + 1j)
        want = -0.051761650994412545 + 1.5649405178158793j
        assert abs(got - want) <= 1e-14 * abs(want) * 10

    @settings(max_examples=200, deadline=None)
    @given(strip)
    def test_recurrence(self, z):
        lhs = digamma(z + 1)
        assert abs(lhs - digamma(z) - 1.0 / z) <= 1e-12 * (1.0 + abs(lhs))

    @settings(max_examples=200, deadline=None)
    @given(strip)
    def test_conjugation(self, z):
        assert digamma(z.conjugate()) == digamma(z).conjugate()


class TestGammaRatio:
    def test_balanced_pair(self):
        # Gamma(41.5)^2 / (Gamma(41) Gamma(42)): all factors huge, ratio ~ 1
        got = gamma_ratio([41.5, 41.5], [41.0, 42.0])
        assert got.real == pytest.approx(0.99392114161570244, rel=1e-14)

    def test_mixed_signs(self):
        got = gamma_ratio([-7.0 / 3.0], [4.0 / 3.0, 1.0 / 3.0])
        want = gamma(-7.0 / 3.0) / (gamma(4.0 / 3.0) * gamma(1.0 / 3.0))
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_overflow_safe(self):
        # individual factors overflow a double; the ratio does not
        got = gamma_ratio([300.25], [300.0])
        assert got.real == pytest.approx(4.1604907329492518, rel=1e-13)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio([-2.0], [1.0])


class TestRangeRefusal:
    # exp_log is the package's one range check: a value past the double
    # range is a DomainError on every public route that exponentiates a log.
    # The one exception is remainder_bound's bound below the range, which
    # it reports as the smallest positive double (test_coeffs).
    def test_exp_log_names_the_side_and_the_value(self):
        with pytest.raises(DomainError, match=r"^X lies above the double "
                                              r"range: Re log = 710$"):
            exp_log(710.0 + 0j, "X")
        with pytest.raises(DomainError, match=r"^gamma_ratio lies below the "
                                              r"double range: Re log = -746$"):
            exp_log(-746.0 + 3j)
        assert exp_log(709.0 + 0j) == cmath.exp(709.0)

    @pytest.mark.parametrize("call", [
        lambda: gamma(200.0),
        lambda: gamma_ratio([1000.5], [0.5]),
        lambda: c0(1000.5, 1000.25),
        lambda: asym_log(1000.5, 1000.25, 5, 1),
        lambda: asym_neg_int(ParamSet(1000.5, 1000.25, 1998.75), 5, 1),
        lambda: seq_factors(ParamSet(400.5, 400.5, 0.5), 10**6),
        lambda: remainder_bound(400, 399),
        lambda: leading_term(ParamSet(300.5, 300.5, 0.25), 10**6),
    ], ids=["gamma", "gamma_ratio", "c0", "asym_log", "asym_neg_int",
            "seq_factors", "remainder_bound", "leading_term"])
    def test_public_routes_refuse_with_domain_error(self, call):
        with pytest.raises(DomainError, match="the double range: Re log = "):
            call()


def _far_left_grid():
    """Seeded real and complex points with Re z log-uniform in [-1e4, -10],
    all left of the reflection abscissa."""
    rng = random.Random(17)
    points = []
    while len(points) < 120:
        z = complex(-10.0 ** rng.uniform(1.0, 4.0),
                    rng.choice((0.0, rng.uniform(-30.0, 30.0))))
        if dist_nonpos_int(z) >= 0.05:
            points.append(z)
    return points


def _kernel_grid():
    """Seeded real and complex points: a spread over Re z in [-10, 40], points
    just above the lift target Re 7, points on both sides of every |w|
    at which the Stirling series changes its term count (with Re w >= 7, so
    the series is summed there directly), and the far-left grid."""
    rng = random.Random(7)
    points = []
    while len(points) < 300:
        z = complex(rng.uniform(-10.0, 40.0),
                    rng.choice((0.0, rng.uniform(-30.0, 30.0))))
        if dist_nonpos_int(z) >= 0.05:
            points.append(z)
    for x in (7.0, 7.0 + 1e-12, 7.001, 7.3):
        points += [complex(x, 0.0), complex(x, rng.uniform(-8.0, 8.0))]
    for radius in complexfn._LOG_RADII + complexfn._PSI_RADII:
        if radius < 7.0:
            continue  # a switch below the lift target is never crossed
        for r in (radius * (1.0 - 1e-12), radius * (1.0 + 1e-12)):
            angle = rng.uniform(-1.0, 1.0) * math.acos(7.0 / r)
            points += [complex(r, 0.0), cmath.rect(r, angle)]
    return points + _far_left_grid()


class TestKernelAccuracy:
    def test_log_gamma_and_digamma_match_mpmath(self):
        with mp.workdps(40):
            for z in _kernel_grid():
                ref = mp.loggamma(mp.mpc(z))
                err = abs(mp.mpc(log_gamma(z)) - ref)
                assert err <= 1e-14 * max(1.0, abs(ref)), z
                ref = mp.digamma(mp.mpc(z))
                err = abs(mp.mpc(digamma(z)) - ref)
                assert err <= 1e-14 * max(1.0, abs(ref)), z

    def test_far_left_log_gamma_held_to_right_half_plane_level(self):
        # Reflection keeps the error near 1 eps |log Gamma| (worst 1.0 eps
        # here); lifting from Re z ~ -1e4 lost up to 18 eps on this grid.
        with mp.workdps(40):
            for z in _far_left_grid():
                ref = mp.loggamma(mp.mpc(z))
                err = abs(mp.mpc(log_gamma(z)) - ref)
                assert err <= 4 * EPS * max(1.0, abs(ref)), z

    def test_large_ratio_matches_mpmath(self):
        # Offsets are multiples of 2^-20 and n < 2^20, so n+a and n+b are
        # exact in double and the error measured is the kernel's alone.
        rng = random.Random(11)
        grid = 2.0 ** -20
        with mp.workdps(40):
            for i in range(200):
                n = 10 ** 6 if i % 10 == 0 else round(10.0 ** rng.uniform(1, 6))
                a, b = (rng.randint(-5 * 2 ** 20, 5 * 2 ** 20) * grid
                        for _ in range(2))
                y = rng.choice((0.0, rng.randint(-2 ** 22, 2 ** 22) * grid))
                num, den = complex(n + a, y), complex(n + b, 0.0)
                want = mp.exp(mp.loggamma(mp.mpc(num))
                              - mp.loggamma(mp.mpc(den)))
                got = gamma_ratio([num], [den])
                assert abs(mp.mpc(got) - want) <= 1e-13 * abs(want), (num, den)


def _lifted(z: complex) -> complex:
    """log_gamma by its path off the real axis: the recurrence lift, or
    reflection left of Re z = -4."""
    if complexfn._in_lower_half(z):
        return complexfn._stirling(z.conjugate(), False).conjugate()
    return complexfn._stirling(z, False)


def _real_grid():
    """Seeded real points: within 1e-11 of the poles -1 ... -60, in [0.5, 3],
    in [-170, -10] and log-uniform up to 1e300."""
    rng = random.Random(13)
    points = [-k + d for k in range(1, 61) for d in (1e-11, -1e-11)]
    points += [rng.uniform(0.5, 3.0) for _ in range(60)]
    points += [rng.uniform(-170.0, -10.0) for _ in range(60)]
    points += [10.0 ** rng.uniform(0.0, 300.0) for _ in range(60)]
    return points + [1e300]


class TestRealAxis:
    def test_log_gamma_matches_mpmath(self):
        with mp.workdps(40):
            for x in _real_grid():
                ref = mp.loggamma(mp.mpf(x))
                for z, want in ((complex(x, 0.0), ref),
                                (complex(x, -0.0), mp.conj(ref))):
                    err = abs(mp.mpc(log_gamma(z)) - want)
                    assert err <= 1e-14 * max(1.0, abs(ref)), z

    def test_imaginary_part_matches_lift(self):
        # The lift sums one -pi per negative factor and rounds at each step;
        # the real-axis path rounds pi * ceil(-x) once, so they agree to a
        # few ulps and in sign, and the zero for x > 0 keeps its sign.
        for x in _real_grid():
            if x < -170.0 or x > 1e3:
                continue  # keep the lift short
            for z in (complex(x, 0.0), complex(x, -0.0)):
                got, lift = log_gamma(z).imag, _lifted(z).imag
                assert math.copysign(1.0, got) == math.copysign(1.0, lift), z
                if x > 0.0:
                    assert got == 0.0, z
                else:
                    assert abs(got - lift) <= 1e-14 * abs(lift), z

    def test_conjugation_exact(self):
        for x in _real_grid():
            up, down = log_gamma(complex(x, 0.0)), log_gamma(complex(x, -0.0))
            assert down.real == up.real
            assert repr(down.imag) == repr(-up.imag), x

    @pytest.mark.parametrize("x1, x2", [(-2.5, -3.25),
                                        (-99999.5, -99999.25)])
    def test_log_gamma_diff_negative_zero_is_lower(self, x1, x2):
        # -0j takes the lower side, as in log_gamma, so the -0j pair is the
        # conjugate of the +0j pair and agrees with the log_gamma difference
        up = _log_gamma_diff(0, complex(x1, 0.0), complex(x2, 0.0))
        down = _log_gamma_diff(0, complex(x1, -0.0), complex(x2, -0.0))
        assert down.real == up.real
        assert repr(down.imag) == repr(-up.imag)

    def test_log_gamma_diff_agrees_with_log_gamma_at_signed_zeros(self):
        # every pairing of signed zeros, with each other and with either
        # half-plane, takes the branch of the log_gamma difference
        grid = (-12.6, -7.25, -2.5, -0.3, 0.4, 3.7)
        for x1, x2 in itertools.product(grid, repeat=2):
            for y1, y2 in itertools.product((0.0, -0.0), (0.0, -0.0, 1.5,
                                                          -1.5)):
                for z1, z2 in ((complex(x1, y1), complex(x2, y2)),
                               (complex(x2, y2), complex(x1, y1))):
                    want = log_gamma(z1) - log_gamma(z2)
                    got = _log_gamma_diff(0, z1, z2)
                    assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), \
                        (z1, z2)

    def test_beyond_lgamma_range_unchanged(self):
        # math.lgamma overflows here; the lift's answer stands
        for z in (complex(1e306, 0.0), complex(1e306, -0.0)):
            assert repr(log_gamma(z)) == repr(_lifted(z))
        assert log_gamma(1e306).real == math.inf


class TestRealTwin:
    """psi and the pair difference on the real axis run in float
    arithmetic; the complex kernel at the same points is the reference."""

    def test_psi_real_part_bit_identical(self):
        rng = random.Random(21)
        points = [rng.uniform(-50.0, 50.0) for _ in range(3000)]
        points += [-4.0 - 1e-9, -4.0 + 1e-9, 7.0, 7.0 - 1e-12, 1e5 + 0.5]
        for x in points:
            if dist_nonpos_int(complex(x)) < 1e-6:
                continue
            want = complexfn._stirling(complex(x, 0.0), True)
            for y in (0.0, -0.0):
                got = complexfn._digamma(complex(x, y))
                assert repr(got.real) == repr(want.real), x
                # the zero imaginary part keeps the input's sign, so the
                # two sides of the axis stay conjugate
                assert repr(got.imag) == repr(y), x

    @pytest.mark.parametrize("x1, x2", [(7.0, 9.5), (12.25, 8.0),
                                        (1e6 + 0.5, 1e6 - 2.25)])
    def test_pair_conjugate_across_signed_zeros(self, x1, x2):
        up = _log_gamma_diff(0, complex(x1, 0.0), complex(x2, 0.0))
        down = _log_gamma_diff(0, complex(x1, -0.0), complex(x2, -0.0))
        assert down.real == up.real
        assert repr(down.imag) == repr(-up.imag)

    def test_pair_within_rounding_of_complex_kernel(self, monkeypatch):
        # math.log1p and math.log round differently from the complex
        # kernel's log1p form and cmath.log, so the last bits may move
        complex_pair = complexfn._stirling_diff

        def no_real_pair(z1, z2, delta):
            # a real pair right of the lift target takes the float path
            assert z1.imag or z2.imag or min(z1.real, z2.real) < 7.0
            return complex_pair(z1, z2, delta)

        monkeypatch.setattr(complexfn, "_stirling_diff", no_real_pair)
        rng = random.Random(5)
        for _ in range(20000):
            n = round(10.0 ** rng.uniform(1.0, 7.0))
            x1, x2 = rng.uniform(-5.0, 5.0), rng.choice((0.0, rng.uniform(
                -5.0, 5.0)))
            z1, z2 = complex(n + x1, 0.0), complex(n + x2, 0.0)
            got = _log_gamma_diff(n, complex(x1), complex(x2))
            want = complex_pair(z1, z2, complex(x1 - x2))
            assert abs(got - want) <= 4 * EPS * max(1.0, abs(want)), (n, x1,
                                                                     x2)


def _timed(fn, *args):
    """fn(*args) and the best time of three calls, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        value = fn(*args)
        best = min(best, time.perf_counter() - start)
    return value, best


# Left of the reflection abscissa no call lifts more than a few steps, so
# these take microseconds; lifting took 23 ms at -1e5 and never returned at
# -1e15.
FAR_LEFT = (complex(-1e15, 0.5), complex(-1e15, -0.5), complex(-1e5, 0.5),
            complex(-99999.5, 0.0), complex(-99999.5, -0.0))


class TestFarLeft:
    @pytest.mark.parametrize("z", FAR_LEFT, ids=repr)
    @pytest.mark.parametrize("fn, ref_fn", [(log_gamma, "loggamma"),
                                            (digamma, "digamma")],
                             ids=["log_gamma", "digamma"])
    def test_bounded_cost_and_accurate(self, fn, ref_fn, z):
        got, seconds = _timed(fn, z)
        assert seconds < 1e-3
        with mp.workdps(50):
            # mpmath has no signed zero: take the upper side, conjugate below
            ref = getattr(mp, ref_fn)(mp.mpc(z.real, abs(z.imag)))
            if math.copysign(1.0, z.imag) < 0.0:
                ref = mp.conj(ref)
            assert abs(mp.mpc(got) - ref) <= 1e-14 * max(1.0, abs(ref))
        mirror = fn(z.conjugate())
        assert mirror.real == got.real
        assert repr(mirror.imag) == repr(-got.imag)

    @pytest.mark.parametrize("n, x1, x2", [
        (0, complex(-1e15, 0.5), complex(-1e15, 0.75)),
        (0, complex(-1e5, 0.5), complex(-1e5, 0.25)),
        (0, complex(-99999.5, 0.0), complex(-99999.25, 0.0)),
        (10**6, complex(-2e6, 0.5), complex(-2e6, 0.25)),
        (0, complex(-1e5, 0.5), complex(3.5, 0.0)),
    ], ids=repr)
    def test_log_gamma_diff_bounded_cost_and_accurate(self, n, x1, x2):
        got, seconds = _timed(_log_gamma_diff, n, x1, x2)
        assert seconds < 1e-3
        with mp.workdps(50):
            ref = (mp.loggamma(mp.mpc(x1) + n) - mp.loggamma(mp.mpc(x2) + n))
            assert abs(mp.mpc(got) - ref) <= 1e-14 * max(1.0, abs(ref))
        if x1.imag > 0.0 and x2.imag > 0.0:
            assert _log_gamma_diff(n, x1.conjugate(), x2.conjugate()) \
                == got.conjugate()


class TestNearPole:
    def test_detection(self):
        assert nonpos_int_distance(0j) <= POLE_TOL
        assert nonpos_int_distance(-3.0 + 0.5 * POLE_TOL * 1j) <= POLE_TOL
        assert not nonpos_int_distance(0.5 + 0j) <= POLE_TOL
        assert not nonpos_int_distance(-3.0 + 1e-6j) <= POLE_TOL


class TestBernoulli:
    def test_bool_count(self):
        # bool is an int subclass, but True is no count
        with pytest.raises(InvalidParameterError):
            bernoulli_numbers(True)

    def test_count_cap_is_the_index_check(self):
        assert len(bernoulli_numbers(64)) == 64
        for bad in (0, 65):
            with pytest.raises(InvalidParameterError,
                               match=f"^count must be an integer in 1..64, "
                                     f"got {bad}$"):
                bernoulli_numbers(bad)

    def test_even_index_values(self):
        b = bernoulli_numbers(8)
        assert b[:4] == (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                         Fraction(-1, 30))
        assert b[7] == Fraction(-3617, 510)

    def test_kernel_table_is_the_recurrence(self):
        # The Stirling series take their coefficients from a literal table; a
        # mistyped digit there must fail here, and the size-matched tables
        # built from it must hold the same doubles as the recurrence's.
        ref = bernoulli_numbers(complexfn._SERIES_TERMS + 1)
        assert tuple(Fraction(p, q) for p, q in complexfn._BERNOULLI) == ref
        log_radii, log_series = complexfn._size_matched(
            tuple(float(b / (2 * k * (2 * k - 1)))
                  for k, b in enumerate(ref, start=1)), odd=1)
        psi_radii, psi_series = complexfn._size_matched(
            tuple(float(b / (2 * k)) for k, b in enumerate(ref, start=1)),
            odd=0)
        assert complexfn._LOG_RADII == log_radii
        assert complexfn._LOG_SERIES == log_series
        assert complexfn._PSI_RADII == psi_radii
        assert complexfn._PSI_SERIES == psi_series
