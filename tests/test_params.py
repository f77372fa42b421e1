import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum.coeffs import g_poly
from hypersum.complexfn import gamma_ratio
from hypersum.engine import eval_auto
from hypersum.errors import InvalidParameterError
from hypersum.landau import landau_asymptotic, landau_direct, landau_nemes
from hypersum.params import (
    INTEGER_TOL,
    NEAR_INTEGER_WARN,
    ExcessClass,
    ParamSet,
    _check_index,
    classify,
    seq_factors,
)


class TestParamSet:
    def test_accepts_valid(self):
        p = ParamSet(1.5, -0.25, 0.25)
        assert (p.a, p.b, p.c) == (1.5, -0.25, 0.25)

    def test_rejects_nonpositive_integers(self):
        for bad in (0.0, -1.0, -6.0, -2.0 + 1e-13j):
            with pytest.raises(InvalidParameterError):
                ParamSet(bad, 0.5, 1.25)
            with pytest.raises(InvalidParameterError):
                ParamSet(0.5, bad, 1.25)
            with pytest.raises(InvalidParameterError):
                ParamSet(0.5, 0.25, bad)

    def test_frozen(self):
        p = ParamSet(1.0, 2.0, 3.5)
        with pytest.raises(AttributeError):
            p.a = 2.0

    @pytest.mark.parametrize("value, want", [
        (1, 1 + 0j), (True, 1 + 0j), (2.5, 2.5 + 0j),
        (Fraction(1, 3), complex(1.0 / 3.0)),
        (Fraction(-1, 3), complex(-1.0 / 3.0)),
        (1.5 + 2j, 1.5 + 2j), (-0.5 + 1e-8j, -0.5 + 1e-8j),
    ], ids=repr)
    def test_converts_to_complex(self, value, want):
        for position in range(3):
            args = [0.5, 1.5, 2.5]
            args[position] = value
            p = ParamSet(*args)
            got = (p.a, p.b, p.c)[position]
            assert type(got) is complex
            assert repr(got) == repr(want)
        assert ParamSet(c=value, b=1.5, a=0.5) == ParamSet(0.5, 1.5, value)

    def test_complex_subclass_becomes_complex(self):
        class Sub(complex):
            pass

        p = ParamSet(Sub(1.5, 2.0), 1.0, 2.0)
        assert type(p.a) is complex and p.a == 1.5 + 2j

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 1, 2), "a must be finite, got (nan+0j)"),
        ((1, math.inf, 2), "b must be finite, got (inf+0j)"),
        ((1, 2, complex(0.0, math.inf)), "c must be finite, got infj"),
        ((0, 1, 2), "a = 0j is (within tolerance) zero or a negative "
                    "integer, which is excluded"),
        ((-1e-10, 1, 2), "a = (-1e-10+0j) is (within tolerance) zero or a "
                         "negative integer, which is excluded"),
        ((1, -3.0 + 1e-10j, 2), "b = (-3+1e-10j) is (within tolerance) zero "
                                "or a negative integer, which is excluded"),
        ((1, 2, Fraction(-4)), "c = (-4+0j) is (within tolerance) zero or a "
                               "negative integer, which is excluded"),
        # a is checked before b: the first bad parameter is named
        ((math.nan, 0, 2), "a must be finite, got (nan+0j)"),
    ], ids=repr)
    def test_rejects_with_message(self, args, message):
        with pytest.raises(InvalidParameterError) as info:
            ParamSet(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad, error", [
        (None, TypeError),
        (10 ** 400, OverflowError), (Fraction(10 ** 400, 3), OverflowError),
    ], ids=repr)
    def test_conversion_errors_pass_through(self, bad, error):
        with pytest.raises(error):
            ParamSet(bad, 1.0, 2.0)

    @pytest.mark.parametrize("text", ["x", "0.5", b"0.5", bytearray(b"0.5")],
                             ids=repr)
    def test_text_is_refused(self, text):
        # complex() would read "0.5" as a number and refuse "x" or bytes
        # with its own ValueError or TypeError
        want = f"^b must be a number, got {re.escape(repr(text))}$"
        with pytest.raises(InvalidParameterError, match=want):
            ParamSet(0.5, text, 1.7)


class TestClassify:
    def test_generic(self):
        cls = classify(0.5, 0.25, 1.5)
        assert cls.kind == "generic"
        assert cls.m is None and cls.p is None and cls.which is None
        assert cls.warnings == ()

    def test_logarithmic(self):
        cls = classify(0.5, 0.5, 1.0)
        assert cls.kind == "logarithmic"
        assert cls.m is None

    def test_positive_integer(self):
        cls = classify(2.0, 0.5, 4.5)
        assert cls.kind == "positive_integer"
        assert cls.m == 2

    def test_negative_integer(self):
        cls = classify(4.0 / 3.0, 1.0 / 3.0, -7.0 / 3.0)
        assert cls.kind == "negative_integer"
        assert cls.m == 4

    def test_degenerate(self):
        cls = classify(1.0, 0.5, -0.5)  # s = -2, a = 1 <= 2
        assert cls.kind == "degenerate_negative_integer"
        assert cls.m == 2 and cls.p == 1 and cls.which == "a"

    def test_degenerate_prefers_larger_p(self):
        cls = classify(2.0, 1.0, 1.0)  # s = -2; candidates p = 2 (a), 1 (b)
        assert (cls.p, cls.which) == (2, "a")
        cls = classify(1.0, 2.0, 1.0)
        assert (cls.p, cls.which) == (2, "b")

    def test_degenerate_tie_prefers_a(self):
        cls = classify(1.0, 1.0, 1.0)  # s = -1, both params at p = 1
        assert (cls.p, cls.which) == (1, "a")

    def test_near_integer_excess_warns(self):
        cls = classify(0.5, 0.25, 1.75 + 1e-6)
        assert cls.kind == "generic"
        assert any("near_integer_excess" in w for w in cls.warnings)

    def test_gamma_pole_warns(self):
        # c - a is a nonpositive integer: the Gauss prefactor vanishes
        cls = classify(2.0, 0.5, 1.0)
        assert any("gamma_pole_c_minus_a" in w for w in cls.warnings)

    def test_near_gamma_pole_warns(self):
        cls = classify(2.0 + 1e-6, 0.5, 1.0)
        assert any("near_gamma_pole_c_minus_a" in w for w in cls.warnings)

    @pytest.mark.parametrize("kind, triples", [
        ("generic", [(0.5, 0.25, 1.5), (0.3 + 1j, 1.7, 2.2 - 0.5j)]),
        ("logarithmic", [(0.5, 0.5, 1.0), (0.3 + 1j, 1.7, 2.0 + 1j)]),
    ])
    def test_warning_free_records_are_shared(self, kind, triples):
        first, second = (classify(*t) for t in triples)
        assert first == ExcessClass(kind=kind) and first.warnings == ()
        assert second is first
        with pytest.raises(AttributeError):
            first.warnings = ("near_integer_excess",)
        assert classify(*triples[0]).warnings == ()

    @pytest.mark.parametrize("triple, kind, warnings", [
        ((0.5, 0.25, 1.75 + 1e-6), "generic", ("near_integer_excess",)),
        ((2.0 + 1e-6, 0.5, 1.0), "generic",
         ("near_gamma_pole_c_minus_a",)),
        ((0.5, -2.0 + 1e-6, -1.5 + 1e-6), "logarithmic",
         ("near_gamma_pole_c_minus_a",)),
        ((1.0 + 1e-6, 2.5, 0.5), "generic",
         ("gamma_pole_c_minus_b", "near_integer_excess")),
    ])
    def test_warned_triples_get_their_own_record(self, triple, kind,
                                                 warnings):
        cls = classify(*triple)
        assert cls == ExcessClass(kind=kind, warnings=warnings)
        assert cls is not ExcessClass(kind=kind)
        assert cls is not classify(*triple)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-8, max_value=8),
           st.floats(min_value=0.05, max_value=0.45).filter(
               lambda f: abs(f - 0.25) > 1e-3))
    def test_integer_excess_detected(self, m, frac):
        # build c = a + b + m exactly; the branch must match sign(m)
        a, b = 0.25 + frac, 0.5
        cls = classify(a, b, a + b + m)
        if m > 0:
            assert cls.kind == "positive_integer"
        elif m == 0:
            assert cls.kind == "logarithmic"
        else:
            assert cls.kind in ("negative_integer",
                                "degenerate_negative_integer")
            assert cls.m == -m

    def test_tolerances_exposed(self):
        assert 0 < INTEGER_TOL < NEAR_INTEGER_WARN < 1


class TestCheckIndex:
    def test_message_without_maximum(self):
        with pytest.raises(InvalidParameterError,
                           match=r"^M must be an integer >= 1, got 0$"):
            _check_index(0, "M")
        assert _check_index(10**30, "M") == 10**30

    @pytest.mark.parametrize("call, name, low, high", [
        (landau_direct, "n", 0, 1_000_000),
        (lambda K: landau_asymptotic(10, K), "K", 0, 6),
        (lambda K: landau_nemes(10, 1.0, K), "K", 0, 3),
        (lambda k: g_poly(k, 0.5), "k", 1, 3),
    ], ids=["landau_direct", "landau_asymptotic", "landau_nemes", "g_poly"])
    def test_bounded_arguments_share_the_check(self, call, name, low, high):
        call(low)
        call(high)
        for bad in (low - 1, high + 1, True, float(low)):
            message = f"{name} must be an integer in {low}..{high}, got {bad!r}"
            with pytest.raises(InvalidParameterError,
                               match=f"^{re.escape(message)}$"):
                call(bad)


class TestSeqFactors:
    def test_lambda_40(self):
        p = ParamSet(1.0 / 3.0, 2.0 / 3.0, 1.0)
        sf = seq_factors(p, 40)
        assert sf.lambda_n.real == pytest.approx(0.9944599758701798, rel=1e-13)

    def test_lambda_10_half_pair(self):
        p = ParamSet(0.5, 0.5, 1.0)
        sf = seq_factors(p, 10)
        assert sf.lambda_n.real == pytest.approx(0.97532004130884897, rel=1e-13)

    def test_index_checked_like_the_engine(self):
        p = ParamSet(0.5, 0.5, 1.0)
        for bad in (True, 0, 2.0):
            with pytest.raises(InvalidParameterError):
                seq_factors(p, bad)
            with pytest.raises(InvalidParameterError):
                eval_auto(p, bad)

    def test_exact_offsets_change_nothing_on_a_grid(self):
        # Where every n + x is exact (parameters on a 2^-10 grid), the ratios
        # formed from the offsets equal gamma_ratio over the sums bit for bit.
        rng = random.Random(4)
        for _ in range(200):
            a, b, c = (complex(rng.randint(-5120, 5120) / 1024,
                               rng.randint(-5120, 5120) / 1024)
                       for _ in range(3))
            n = rng.choice((rng.randint(2, 300), int(10 ** rng.uniform(3, 6))))
            try:
                sf = seq_factors(ParamSet(a, b, c), n)
            except InvalidParameterError:
                continue
            assert repr(sf.omega_n) == repr(
                gamma_ratio([n + a, n + b], [n, n + c])), (a, b, c, n)
            assert repr(sf.lambda_n) == repr(
                gamma_ratio([n + a, n + b], [n, n + a + b])), (a, b, n)

    def test_omega_equals_lambda_when_c_is_a_plus_b(self):
        p = ParamSet(0.5, 0.5, 1.0)
        sf = seq_factors(p, 25)
        assert abs(sf.omega_n - sf.lambda_n) <= 1e-14 * abs(sf.lambda_n)
