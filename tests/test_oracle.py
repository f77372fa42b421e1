"""Tests for the extended-precision reference evaluator."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from hypersum import engine, landau, oracle, params, verification
from hypersum.errors import InvalidParameterError, PrecisionUnavailableError
from hypersum.oracle import (
    DEFAULT_DIGITS,
    OracleValue,
    compare,
    digamma_ref,
    gamma_ref,
    landau_ref,
    partial_sum_ref,
)

# Each reference function with arguments it accepts.
_REFERENCES = [
    (partial_sum_ref, (0.5, 0.5, 1.0, 10)),
    (gamma_ref, (2.5,)),
    (digamma_ref, (2.5,)),
    (landau_ref, (5,)),
]


class TestDefaultDigits:
    def test_unset(self):
        assert DEFAULT_DIGITS == 40
        for ref, args in _REFERENCES:
            assert ref(*args).digits == 40, ref.__name__


class TestRequestValidation:
    def test_bad_n(self):
        with pytest.raises(InvalidParameterError):
            partial_sum_ref(1.0, 1.0, 2.5, 0)
        with pytest.raises(InvalidParameterError):
            partial_sum_ref(1.0, 1.0, 2.5, 200_000)
        with pytest.raises(InvalidParameterError):
            landau_ref(-1)

    def test_partial_sum_bool_index(self):
        # bool is an Integral, but True is no index
        with pytest.raises(InvalidParameterError):
            partial_sum_ref(0.5, 0.5, 1.0, True)

    def test_landau_index_capped_as_the_partial_sum(self):
        # G_n sums n + 1 terms: the last index within the limit answers,
        # the next is refused at once instead of running for minutes
        last = oracle._MAX_PARTIAL_SUM_N - 1
        assert landau_ref(last, 30).as_complex().real > 1.0
        with pytest.raises(InvalidParameterError, match="partial_sum limit"):
            landau_ref(last + 1)
        with pytest.raises(InvalidParameterError, match="partial_sum limit"):
            landau_ref(10 ** 9)

    def test_landau_bool_index(self):
        for n in (True, False):
            with pytest.raises(InvalidParameterError):
                landau_ref(n)

    def test_unsupported_parameter_type(self):
        for bad in (Decimal("0.5"), "0.5"):
            with pytest.raises(InvalidParameterError, match=(
                    f"^a has unsupported type {type(bad).__name__}$")):
                partial_sum_ref(bad, 0.5, 1.0, 10)

    def test_nonfinite_argument(self):
        with pytest.raises(InvalidParameterError):
            gamma_ref(float("inf"))
        with pytest.raises(InvalidParameterError):
            digamma_ref(complex(0.0, float("nan")))

    def test_coefficient_pole(self):
        # c = -2 hits a zero denominator at k = 2 once n asks for that term.
        with pytest.raises(InvalidParameterError):
            partial_sum_ref(0.5, 0.5, -2.0, 5)

    def test_digits_bounds(self):
        # each reference function checks its own digits
        for ref, args in _REFERENCES:
            with pytest.raises(InvalidParameterError):
                ref(*args, digits=29)
            with pytest.raises(PrecisionUnavailableError):
                ref(*args, digits=100_001)
            with pytest.raises(InvalidParameterError):
                ref(*args, digits=40.0)
            assert ref(*args, digits=30).digits == 30


class TestValues:
    def test_gamma_integer(self):
        ref = gamma_ref(6)
        assert ref.as_complex() == 120.0

    def test_gamma_half(self):
        ref = gamma_ref(0.5, digits=50)
        with mp.workdps(60):
            assert mp.fabs(ref.value - mp.sqrt(mp.pi)) < mp.mpf(10) ** -50

    def test_digamma_one(self):
        ref = digamma_ref(1.0)
        assert abs(ref.as_complex() + 0.5772156649015329) < 1e-15

    def test_digamma_complex(self):
        z = 0.5 + 1.0j
        got = digamma_ref(z).as_complex()
        assert abs(got - (-0.051761650994412545 + 1.5649405178158793j)) < 1e-14

    def test_landau_small(self):
        assert landau_ref(0).as_complex() == 1.0
        assert landau_ref(1).as_complex() == 1.25

    def test_landau_matches_double_route(self):
        ref = landau_ref(50)
        assert compare(landau.landau_direct(50), ref).rel_err < 1e-15

    def test_partial_sum_unit_index(self):
        assert partial_sum_ref(0.7, -1.3, 2.2, 1).as_complex() == 1.0

    def test_partial_sum_fraction_arguments(self):
        # Fractions are converted exactly, so thirds stay thirds.
        ref = partial_sum_ref(Fraction(1, 3), Fraction(2, 3), 1, 20, digits=50)
        rep = engine.eval_log(params.ParamSet(1 / 3, 2 / 3, 1.0), 20)
        assert compare(rep.value, ref).rel_err < 1e-13

    def test_fraction_parameters_sum_exactly(self):
        # frozen: the proven sums rounded once at the default working
        # precision, as (mantissa, exponent) of each part
        def bits(ref):
            return tuple(part.man_exp for part in (ref.value.real, ref.value.imag))

        assert bits(partial_sum_ref(Fraction(1, 3), Fraction(-7, 5),
                                    Fraction(9, 4), 50)) == (
            (607835155340329285534945831012409076471751033845271, -169), (0, 0))
        assert bits(partial_sum_ref(Fraction(1, 3), 0.5 + 1j,
                                    Fraction(9, 4), 50)) == (
            (93211640424050180325845751853892093194275994392561, -166),
            (372058643091587158570011244718870338723657222746685, -170))
        # landau_ref's float halves are exactly Fraction(1, 2)
        assert bits(landau_ref(20)) == bits(partial_sum_ref(
            Fraction(1, 2), Fraction(1, 2), 1, 21))

    def test_partial_sum_complex(self):
        ref = partial_sum_ref(0.5 + 1.0j, 0.25, 0.75 + 1.0j, 12)
        want = 1.7247741028331527 + 0.19346088408429105j
        assert abs(ref.as_complex() - want) < 1e-14


class TestCompare:
    def test_exact_match(self):
        ref = gamma_ref(6)
        rep = compare(120.0, ref)
        assert rep.abs_err == 0.0
        assert rep.rel_err == 0.0
        assert rep.reference_precision == 40

    def test_known_offset(self):
        ref = landau_ref(1)
        rep = compare(1.25 + 1e-6, ref)
        assert math.isclose(rep.abs_err, 1e-6, rel_tol=1e-9)
        assert math.isclose(rep.rel_err, 8e-7, rel_tol=1e-9)

    def test_zero_reference(self):
        ref = partial_sum_ref(-2.0, 1.0, 1.0, 3)  # 1 - 2 + 1 = 0
        assert ref.as_complex() == 0.0
        assert compare(0.0, ref).rel_err == 0.0
        assert compare(1e-20, ref).rel_err == float("inf")

    def test_precision_tracks_digits(self):
        rep = compare(2.0, gamma_ref(3.0, digits=35))
        assert rep.reference_precision == 35

    def test_correctly_rounded(self):
        # Each error is the exact deviation rounded once: mpmath at three
        # times the reference's digits, rounded to a float, must agree.
        def want(x, ref):
            parts = ((x, 0) if isinstance(x, Fraction)
                     else (complex(x).real, complex(x).imag))
            with mp.workdps(3 * ref.digits):
                xm = mp.mpc(*(mp.mpf(Fraction(p).numerator)
                              / Fraction(p).denominator for p in parts))
                err = mp.fabs(xm - ref.value)
                mag = mp.fabs(ref.value)
                rel = err / mag if mag else (0 if err == 0 else mp.inf)
                return float(err), float(rel)

        def at(value):
            # a reference at 40 digits of value(), formed at that precision
            with mp.workdps(50):
                return OracleValue(mp.mpc(value()), 40)

        zero = partial_sum_ref(-2.0, 1.0, 1.0, 3)
        cases = [(120.0, gamma_ref(6)), (0.0, zero), (1e-20, zero)]
        for exp10 in (-300, 0, 300):
            ref = at(lambda: mp.sqrt(2) * mp.mpf(10) ** exp10)
            near = ref.as_complex().real
            cases += [(math.nextafter(near, math.inf), ref),
                      (math.nextafter(near, -math.inf), ref)]
        # just above the midpoint between 1 and the next float: one rounding
        # goes up, a root cut to fewer bits would tie to even and go down
        tie = at(lambda: (1 + mp.ldexp(1, -53)) * (1 + mp.ldexp(1, -150)))
        ref = at(lambda: mp.mpc(mp.pi, -mp.e))
        cases += [(0.0, tie),
                  (complex(-0.0, -2.718281828459045), ref),
                  (complex(3.141592653589793, -0.0), ref),
                  (complex(-0.0, -0.0), ref),
                  (Fraction(22, 7), ref),
                  (Fraction(355, 113), landau_ref(1))]
        for digits in (35, 100):
            ref = gamma_ref(2.5 + 1.0j, digits=digits)
            cases += [(ref.as_complex(), ref),
                      (ref.as_complex() * (1 + 2.0 ** -40), ref)]
        for x, ref in cases:
            rep = compare(x, ref)
            assert (rep.abs_err, rep.rel_err) == want(x, ref), (x, ref.value)
        assert 0.0 < compare(*cases[3]).abs_err < 1e-315  # subnormal
        assert compare(0.0, tie).abs_err == 1 + 2.0 ** -52
        for bad in (mp.inf, mp.nan, mp.mpc(1, mp.inf)):
            with pytest.raises(InvalidParameterError):
                compare(1.0, OracleValue(mp.mpc(bad), 40))


# The fixed-point partial sum against mpmath's term-by-term sum: a second,
# independent raw sum, converting its parameters on its own.

def _mp(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpc(x)


def _mp_sum(a, b, c, n, dps):
    # t_{k+1} = t_k (a+k)(b+k) / ((c+k)(k+1)); sum the first n terms.
    with mp.workdps(dps):
        a, b, c = _mp(a), _mp(b), _mp(c)
        total = term = mp.mpf(1)
        for k in range(n - 1):
            term = term * (a + k) * (b + k) / ((c + k) * (k + 1))
            total += term
        return total


def _rel(got, want):
    with mp.workdps(200):
        return float(abs(got - want) / abs(want))


def _draw(rng, kind):
    if kind == "real":
        return rng.uniform(-5.0, 5.0)
    if kind == "complex":
        return complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
    if kind == "fraction":
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    if kind == "int":
        return rng.randint(-5, 5)
    return _draw(rng, rng.choice(("real", "complex", "fraction", "int")))


def _draw_triple(rng, kind):
    a, b = _draw(rng, kind), _draw(rng, kind)
    while True:
        c = _draw(rng, kind)
        if complex(c).imag != 0 or abs(c - min(round(c.real), 0)) >= 0.1:
            return a, b, c


class _Passes(list):
    """The scale of every fixed-point pass, in order; `sums` keeps each
    pass's (sr, si, scale)."""

    sums: list


@pytest.fixture
def passes(monkeypatch):
    """The scale of every fixed-point pass run meanwhile, in order."""
    scales = _Passes()
    scales.sums = []
    fixed_point_pass = oracle._fixed_point_pass

    def spy(*args):
        scales.append(args[-1])
        sr, si, bound = fixed_point_pass(*args)
        scales.sums.append((sr, si, args[-1]))
        return sr, si, bound

    monkeypatch.setattr(oracle, "_fixed_point_pass", spy)
    return scales


class TestFixedPointSum:
    def test_agrees_with_mpmath_sum(self, passes):
        rng = random.Random(8)
        cases = [(*_draw_triple(rng, kind), 20_000)
                 for kind in ("real", "complex")]
        for kind in ("real", "complex", "fraction", "int", "mixed"):
            for _ in range(4):
                n = round(10.0 ** rng.uniform(0.0, math.log10(2e4)))
                cases.append((*_draw_triple(rng, kind), n))
        values = []
        for a, b, c, n in cases:
            got = partial_sum_ref(a, b, c, n, digits=60).value
            assert _rel(got, _mp_sum(a, b, c, n, 70)) <= 1e-45, (a, b, c, n)
            values.append(got)
        assert len(passes) == len(cases)
        # the value is the pass's sum rounded once to the working precision
        for got, (sr, si, scale) in zip(values, passes.sums):
            with mp.workdps(60 + 10):
                assert got == mp.mpc(mp.ldexp(sr, -scale),
                                     mp.ldexp(si, -scale))

    def test_ignores_the_ambient_precision(self, monkeypatch):
        # The oracle sets its own precision and enters no mpmath context.
        args = (0.5 + 1.0j, -0.25, 0.75 - 2.0j, 300)
        ref, land = partial_sum_ref(*args), landau_ref(40)
        x = ref.as_complex() * (1 + 2.0 ** -45)
        err = compare(x, ref)

        def no_context(*_):
            raise AssertionError("entered an mpmath context")

        monkeypatch.setattr(mp, "workdps", no_context)
        monkeypatch.setattr(mp, "workprec", no_context)
        for dps in (15, 300):
            with mp.mp.workdps(dps):
                prec = mp.mp.prec
                assert partial_sum_ref(*args).value._mpc_ == ref.value._mpc_
                assert landau_ref(40).value._mpc_ == land.value._mpc_
                assert compare(x, ref) == err
                assert mp.mp.prec == prec

    def test_result_keeps_the_working_precision(self, passes):
        # At 80 digits the agreement tightens with the precision; a result
        # rounded to double on the way out would stop at ~1e-16.
        cases = ((0.7, -1.3, 2.2, 300),
                 (0.5 + 1.0j, -0.25, 0.75 - 2.0j, 300),
                 (Fraction(1, 3), Fraction(-7, 5), 3, 100))
        for a, b, c, n in cases:
            got = partial_sum_ref(a, b, c, n, digits=80).value
            assert _rel(got, _mp_sum(a, b, c, n, 110)) <= 1e-85, (a, b, c, n)
        assert len(passes) == len(cases)

    def test_exact_zero_stays_zero(self):
        # Every division is exact, so the bound is 0 and proves the zero.
        assert partial_sum_ref(-2.0, 1.0, 1.0, 3).value == 0
        assert partial_sum_ref(-2, 1, Fraction(1), 3).value == 0
        assert partial_sum_ref(-2, 1j, 1j, 3).value == 0

    def test_extreme_magnitudes_return(self, passes):
        # Integers of thousands of bits; never converted to float whole.  At
        # 1e-300 + 1j the complex ratio's numerator is past the float range,
        # the ratio is not.
        rows = ((1e300, 3), (1e-300, 50), (1e-300 + 1j, 20))
        for a, n in rows:
            got = partial_sum_ref(a, 0.5, 1.5, n, digits=60).value
            assert _rel(got, _mp_sum(a, 0.5, 1.5, n, 70)) <= 1e-45, (a, n)
        assert len(passes) == len(rows)
        # Ratios near 1e300 compound past the float range in the rounding
        # bound, and at 1e400 / 3 the ratio itself is past it: no digit of
        # these is proven.
        for a, n in ((1e300, 10), (Fraction(10**400 + 1, 3), 4)):
            with pytest.raises(PrecisionUnavailableError):
                partial_sum_ref(a, 0.5, 1.5, n, digits=60)

    def test_cancellation_escalates(self, passes):
        # 1 + a + a(a+1)/2 = (a+1)(a+2)/2 is ~2^-41 against terms of 2.  At a
        # binary a every division is exact, and the one pass proves it with
        # bound 0.  A third in a makes the first pass's bound fall 20 bits
        # short; the second pass, 52 bits finer, proves it.
        for a, scales in ((-2.0 + 2.0 ** -40, [193]),
                          (Fraction(-2) + Fraction(1, 3 * 2 ** 40), [193, 245])):
            passes.clear()
            got = partial_sum_ref(a, 1.0, 1.0, 3, digits=40).value
            assert passes == scales, a
            exact = (Fraction(a) + 1) * (Fraction(a) + 2) / 2
            with mp.workdps(60):
                assert _rel(got, _mp(exact)) <= 1e-45, a

    def test_heavy_cancellation_is_proven(self, passes):
        # These cancel by up to ~400 bits, past the first pass's scale:
        # summed at the working precision alone they come out 3.5e-40 to
        # 4e22 relative off.
        for a, b, c, n in (
                (-97.88175688944858, -99.27897310872645, -197.16072999817504,
                 1000),
                (5.243089730993816, -18.9203793687074, -8.677289637713585, 200),
                (-24.352592626246892 - 2.948981060632118j, -24.559767750489634,
                 -29.963688314705873 - 2.948981060632118j, 200),
                (-52.790382052513095, -79.36679315385683, -152.5755266842337,
                 200)):
            want = _mp_sum(a, b, c, n, 400)
            assert _rel(_mp_sum(a, b, c, n, 300), want) <= 1e-100
            passes.clear()
            got = partial_sum_ref(a, b, c, n).value
            assert _rel(got, want) <= 1e-45, (a, b, c, n)
            assert len(passes) >= 2, (a, b, c, n)

    def test_unproven_zero_raises(self, passes):
        # 1 + 4/3 - 7/3 is exactly 0, but the thirds never divide exactly, so
        # no scale proves a digit of it.
        with pytest.raises(PrecisionUnavailableError):
            partial_sum_ref(-2, Fraction(2, 5), Fraction(-3, 5), 3)
        assert len(passes) > 1

    def test_pole_is_exact(self):
        # c = -2 makes c + k vanish at k = 2, the step to the fourth term.
        assert partial_sum_ref(0.5, 0.5, -2.0, 3).value != 0
        for c in (-2.0, -2 + 0j, -2, Fraction(-4, 2)):
            with pytest.raises(InvalidParameterError):
                partial_sum_ref(0.5, 0.5, c, 4)
        partial_sum_ref(0.5, 0.5, -2.0 + 2.0 ** -50, 4)

    def test_landau_constants_are_the_partial_sum(self, passes):
        # G_n against its defining series summed term by term in mpmath,
        # t_0 = 1, t_{k+1} = t_k ((2k+1)/(2k+2))^2, k = 0..n
        for n in (0, 1, 2, 13, 100, 2000):
            with mp.workdps(70):
                want = term = mp.mpf(1)
                for k in range(n):
                    term = term * (2 * k + 1) ** 2 / mp.mpf((2 * k + 2) ** 2)
                    want += term
            assert _rel(landau_ref(n).value, want) <= 1e-45, n
        assert len(passes) == 6

    def test_table_grid_sums_in_fixed_point(self, passes):
        rows, ok = verification.table_errors(40)
        assert ok and len(rows) == 6
        assert len(passes) == 6


def _direct_product_pass(ar, ai, br, bi, cr, ci, d, n, scale):
    # The fixed-point pass with the ratio's numerator and denominator formed
    # as direct products at every step; oracle._fixed_point_pass steps them
    # by exact differences and must match it bit for bit.
    tr = sr = 1 << scale
    ti = si = 0
    dk = d
    err = bound = 0.0
    try:
        if ai == bi == ci == 0:
            for _ in range(n - 1):
                num = ar * br
                if not num:
                    break
                den = cr * dk
                tr, rem = divmod(tr * num, den)
                sr += tr
                err = err * abs(num / den) + (1.0 if rem else 0.0)
                bound += err
                ar += d
                br += d
                cr += d
                dk += d
        else:
            for _ in range(n - 1):
                ur = ar * br - ai * bi
                ui = ar * bi + ai * br
                pr = ur * cr + ui * ci
                pi = ui * cr - ur * ci
                if not (pr or pi):
                    break
                q = (cr * cr + ci * ci) * dk
                xr = tr * pr - ti * pi
                ti, ri = divmod(tr * pi + ti * pr, q)
                tr, rr = divmod(xr, q)
                sr += tr
                si += ti
                try:
                    ratio = math.hypot(pr, pi) / q
                except OverflowError:
                    ratio = math.hypot(pr / q, pi / q)
                err = err * ratio + (1.5 if rr or ri else 0.0)
                bound += err
                ar += d
                br += d
                cr += d
                dk += d
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise PrecisionUnavailableError("bound past the float range")
    return sr, si, bound


def _pass_outcome(fixed_point_pass, args):
    try:
        return fixed_point_pass(*args)
    except Exception as exc:
        return type(exc)


def test_difference_steps_match_the_direct_products():
    # Every integer the pass forms equals the direct product, so the sum, the
    # bound, the early stop and each raised error are the same.
    rng = random.Random(29)
    triples = [_draw_triple(rng, kind)
               for kind in ("real", "complex", "fraction", "int", "mixed")
               for _ in range(6)]
    triples += [
        (-3.0, 0.5, 1.5),                      # a + 3 = 0: the early stop
        (0.25 + 1j, -4, Fraction(7, 3)),       # b + 4 = 0, a complex
        (1.5 - 2j, -2 + 0j, 0.5 + 1j),         # complex b with (b+2) = 0
        (0.5, 0.5, -2.0),                      # c + 2 = 0: the pole
        (0.5, 1j, -3 + 0j),                    # complex, c + 3 = 0
        (Fraction(1, 2), Fraction(1, 2), 1),   # the Landau constants
        (-2.0 + 2.0 ** -40, 1.0, 1.0),         # test_cancellation_escalates
        (Fraction(-2) + Fraction(1, 3 * 2 ** 40), 1.0, 1.0),
    ]
    # integers of thousands of bits, their terms growing like 1e300^k: at
    # 1e-300 + 1j p is past the float range, at 1e300 the bound is
    extreme = [(1e-300 + 1j, 0.5, 1.5), (1e300, 0.5, 1.5)]
    checked = 0
    for (a, b, c), ns in ([(t, (1, 2, 3, 5, 100, 2000)) for t in triples]
                          + [(t, (1, 2, 3, 5, 20)) for t in extreme]):
        ratios = [p.as_integer_ratio()
                  for p in oracle._exact(a, "a") + oracle._exact(b, "b")
                  + oracle._exact(c, "c")]
        d = math.lcm(*(den for _, den in ratios))
        ints = [num * (d // den) for num, den in ratios]
        for n in ns:
            for scale in (193, 245):
                args = (*ints, d, n, scale)
                want = _pass_outcome(_direct_product_pass, args)
                assert _pass_outcome(oracle._fixed_point_pass, args) == want, (
                    a, b, c, n, scale)
                checked += not isinstance(want, type)
    assert checked > 300
