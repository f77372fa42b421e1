"""Command-line interface tests.

Everything drives ``cli.run`` in process with a StringIO sink; one test
goes through the real interpreter entry point as a smoke check.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

from hypersum import cli, coeffs, verification
from hypersum.coeffs import g_poly
from hypersum.errors import InvalidParameterError

G_10 = 1.8223893427202711


def run_cli(*argv):
    buf = StringIO()
    rc = cli.run(list(argv), out=buf)
    return rc, buf.getvalue()


def run_json(*argv):
    rc, text = run_cli(*argv)
    return rc, json.loads(text)


class TestEval:
    def test_generic_record(self):
        rc, rec = run_json("eval", "-a", "2", "-b", "0.5", "-c", "4.25",
                           "-n", "7")
        assert rc == 0
        assert set(rec) == {"value_re", "value_im", "branch", "terms_used",
                            "est_error", "warnings", "path"}
        assert rec["branch"] == "generic"
        assert abs(rec["value_re"] - 1.4583492161585467) < 1e-14
        assert rec["value_im"] == 0.0
        assert rec["est_error"] < 1e-12
        assert rec["warnings"] == []

    def test_real_triple_prints_a_real_value(self):
        # a near-integer-excess case whose prefactors are exponentiated
        # from complex logs: the real triple still answers with Im 0
        rc, rec = run_json("eval", "-a", "7.10666871332937",
                           "-b=-23.99945823483209", "-c=-14.892817802899073",
                           "-n", "1000")
        assert rc == 0
        assert rec["branch"] == "generic" and rec["path"] == "expansion"
        assert rec["warnings"] == ["near_integer_excess"]
        assert rec["value_im"] == 0.0

    def test_landau_partial_sum(self):
        # S_2(1/2,1/2;1) is the second Landau constant.
        rc, rec = run_json("eval", "-a", "0.5", "-b", "0.5", "-c", "1",
                           "-n", "2")
        assert rc == 0
        assert rec["branch"] == "logarithmic"
        assert abs(rec["value_re"] - 1.25) < 1e-13

    def test_complex_parameters(self):
        rc, rec = run_json("eval", "-a", "0.5+1i", "-b", "0.25",
                           "-c", "0.75+1i", "-n", "12")
        assert rc == 0
        want = 1.7247741028331527 + 0.19346088408429105j
        got = complex(rec["value_re"], rec["value_im"])
        assert abs(got - want) < 1e-13

    def test_leading_minus_needs_equals_form(self):
        rc, rec = run_json("eval", "-a", "1.5", "-b=-0.25", "-c", "0.25",
                           "-n", "5")
        assert rc == 0
        assert rec["branch"] == "negative_integer"
        assert abs(rec["value_re"] + 3.617588141025641) < 1e-13

    def test_alternative_log_form(self):
        args = ("-a", "0.3333333333333333", "-b", "0.6666666666666666",
                "-c", "1", "-n", "20")
        _, psi = run_json("eval", *args, "--form", "psi")
        _, alt = run_json("eval", *args, "--form", "alt")
        assert abs(psi["value_re"] - 1.8896625074153495) < 1e-12
        assert abs(alt["value_re"] - psi["value_re"]) < 1e-12

    def test_bad_complex_is_usage_error(self):
        rc, text = run_cli("eval", "-a", "nope", "-b", "1", "-c", "2.5",
                           "-n", "5")
        assert rc == 2
        assert text == ""

    def test_missing_argument_is_usage_error(self):
        rc, _ = run_cli("eval", "-a", "1", "-b", "1", "-n", "5")
        assert rc == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "1.5"])
    def test_tol_refused_by_tolerance_alone(self, tol, capsys):
        rc, text = run_cli("eval", "-a", "2.3", "-b", "1.9", "-c", "0.7",
                           "-n", "50", f"--tol={tol}")
        assert rc == 1
        assert text == ""
        assert capsys.readouterr().err.startswith(
            "error: rel_tol must lie in (0, 1), got ")

    def test_tol_not_a_number_is_usage_error(self):
        rc, text = run_cli("eval", "-a", "2.3", "-b", "1.9", "-c", "0.7",
                           "-n", "50", "--tol", "abc")
        assert rc == 2
        assert text == ""

    def test_bad_index_is_domain_error(self):
        rc, text = run_cli("eval", "-a", "1", "-b", "1", "-c", "2.5",
                           "-n", "0")
        assert rc == 1
        assert text == ""


    def test_pole_of_n_plus_a_plus_b_sums_directly(self):
        rc, rec = run_json("eval", "-a=-1.5", "-b=-1.5", "-c", "1", "-n", "3")
        assert rc == 0
        assert rec["path"] == "direct_sum"
        assert rec["value_re"] == 3.390625

    def test_answer_out_of_range_is_domain_error(self, capsys):
        rc, text = run_cli("eval", "-a", "150.5", "-b", "150.5", "-c", "0.7",
                           "-n", "1000000")
        assert rc == 1
        assert text == ""
        assert capsys.readouterr().err.startswith(
            "error: S_n lies above the double range")


class TestClassify:
    def test_degenerate(self):
        rc, rec = run_json("classify", "-a", "1", "-b", "0.5", "-c=-0.5")
        assert rc == 0
        assert rec["kind"] == "degenerate_negative_integer"
        assert (rec["m"], rec["p"], rec["which"]) == (2, 1, "a")

    def test_generic_complex(self):
        rc, rec = run_json("classify", "-a", "1", "-b", "1", "-c=-2+2i")
        assert rc == 0
        assert rec["kind"] == "generic"
        assert rec["m"] is None


class TestLandau:
    def test_direct_default(self):
        rc, rec = run_json("landau", "-n", "10")
        assert rc == 0
        assert rec["method"] == "direct"
        assert rec["index"] == 10
        assert abs(rec["value_re"] - G_10) < 1e-15

    def test_thm3_reports_bound(self):
        rc, rec = run_json("landau", "-n", "50", "--method", "thm3")
        assert rc == 0
        assert rec["bound"] > 0.0
        assert abs(rec["value_re"] - 2.3162577233525203) <= rec["bound"]

    def test_all_methods_agree_on_index(self):
        rc, recs = run_json("landau", "-n", "50", "--method", "all")
        assert rc == 0
        assert [r["method"] for r in recs] == [
            "direct", "watson", "ck", "thm3", "asym", "nemes"]
        values = [r["value_re"] for r in recs]
        # every route answers for the same constant
        assert max(values) - min(values) < 1e-7

    def test_all_tolerates_partial_failure(self):
        rc, recs = run_json("landau", "-n", "5", "--method", "all")
        assert rc == 0
        assert len(recs) == 6
        failed = [r for r in recs if "error" in r]
        assert [r["method"] for r in failed] == ["thm3"]

    def test_bound_below_the_double_range_is_the_least_double(self):
        # remainder_bound's gamma ratio underflows at this index and depth
        # (Re log = -811.1); the value is in range, and the smallest
        # positive double still bounds its remainder
        rc, rec = run_json("landau", "-n", "1175361495472161", "--method",
                           "thm3", "--terms", "27")
        assert rc == 0
        assert rec["bound"] == 5e-324
        _, shallow = run_json("landau", "-n", "1175361495472161", "--method",
                              "thm3", "--terms", "20")
        assert shallow["bound"] == pytest.approx(4.7e-267, rel=1e-2)
        assert rec["value_re"] == shallow["value_re"] == pytest.approx(
            12.1117409969, rel=1e-11)

    def test_all_records_each_refusal(self):
        rc, recs = run_json("landau", "-n", "188180492708465792", "--method",
                            "all", "--terms", "22")
        assert rc == 0
        errors = {r["method"]: r["error"] for r in recs if "error" in r}
        assert errors == {
            "direct": "n must be an integer in 0..1000000, got "
                      "188180492708465792",
            "asym": "K must be an integer in 0..6, got 22",
            "nemes": "K must be an integer in 0..3, got 22"}
        assert [r["method"] for r in recs if "error" not in r] == [
            "watson", "ck", "thm3"]
        assert recs[3]["bound"] == 5e-324

    @pytest.mark.parametrize("argv", [
        ["eval", "-a", "0.5", "-b", "0.25", "-c", "1.5"],
        ["landau", "--method", "all"],
    ], ids=["eval", "landau_all"])
    def test_index_past_the_double_range_is_an_error_line(self, argv, capsys):
        rc, _ = run_cli(*argv, "-n", str(10 ** 400))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_out_of_range_shift(self):
        rc, _ = run_cli("landau", "-n", "5", "--method", "nemes", "--h", "2")
        assert rc == 1


class TestCoeffs:
    def test_exact_column_csv(self):
        rc, text = run_cli("coeffs", "--family", "C", "--csv")
        assert rc == 0
        rows = list(csv.DictReader(StringIO(text)))
        assert [int(r["k"]) for r in rows] == [1, 2, 3, 4, 5, 6]
        for r in rows:
            assert float(Fraction(r["exact"])) == float(r["value_re"])
        assert rows[0]["exact"] == "3/4"

    def test_non_finite_values_parse(self):
        # JSON writes Infinity and NaN, which json reads, and CSV writes inf
        # and nan, which float reads
        records = [{"k": 1, "value_re": math.inf, "value_im": -math.inf},
                   {"k": 2, "value_re": math.nan, "value_im": 0.0}]
        want = [repr(complex(r["value_re"], r["value_im"])) for r in records]
        buf = StringIO()
        cli._emit(records, argparse.Namespace(csv=False), buf)
        assert [repr(complex(r["value_re"], r["value_im"]))
                for r in json.loads(buf.getvalue())] == want
        buf = StringIO()
        cli._emit(records, argparse.Namespace(csv=True), buf)
        rows = list(csv.DictReader(StringIO(buf.getvalue())))
        assert [repr(complex(float(r["value_re"]), float(r["value_im"])))
                for r in rows] == want

    @pytest.mark.parametrize("family", ["A", "lambda"])
    def test_coefficients_past_the_double_range_exit_1(self, family):
        # A and lambda overflow at these parameters: the library refuses the
        # values, as eval does, instead of printing inf and nan
        rc, text = run_cli("coeffs", "--family", family,
                           "-a", "1e200", "-b", "1e200")
        assert rc == 1 and text == ""

    def test_sigma_needs_parameters(self):
        rc, _ = run_cli("coeffs", "--family", "sigma")
        assert rc == 1

    def test_sigma_refuses_nan(self):
        rc, text = run_cli("coeffs", "--family", "sigma", "-a=nan", "-b",
                           "0.5", "--k", "2")
        assert rc == 1 and text == ""

    def test_sigma_values(self):
        rc, recs = run_json("coeffs", "--family", "sigma",
                            "-a", "0.5", "-b", "0.5", "--k", "2")
        assert rc == 0
        assert [r["k"] for r in recs] == [1, 2]
        assert abs(recs[0]["value_re"] - 3.0) < 1e-15
        assert abs(recs[1]["value_re"] - 23.0 / 6.0) < 1e-15

    def test_lambda_prints_the_coefficients(self):
        # lambda_1 = -ab and lambda_2 = ab (a + b - 1 + ab) / 2 themselves,
        # not differences of truncated series, which round in the last digits
        rc, recs = run_json("coeffs", "--family", "lambda",
                            "-a", "0.01", "-b", "0.3")
        assert rc == 0
        assert [(r["k"], r["value_re"], r["value_im"]) for r in recs] == [
            (1, -0.003, 0.0), (2, -0.0010305, 0.0)]
        rc, _ = run_cli("coeffs", "--family", "lambda",
                        "-a", "0.01", "-b", "0.3", "--k", "3")
        assert rc == 1

    def test_g_polynomials(self):
        rc, recs = run_json("coeffs", "--family", "g")
        assert rc == 0
        assert recs[0]["coeffs"] == ["-3/4", "1"]
        assert recs[2]["coeffs"] == ["-7/128", "43/96", "-3/4", "1/3"]
        # each row is the polynomial coeffs.g_poly evaluates
        for rec in recs:
            poly = [Fraction(c) for c in rec["coeffs"]]
            for h in (Fraction(0), Fraction(1), Fraction(3, 4),
                      Fraction(-5, 3), Fraction(7, 2)):
                assert (sum(c * h ** i for i, c in enumerate(poly))
                        == g_poly(rec["k"], h))


class TestTable1:
    def test_reproduces_published_grid(self):
        rc, recs = run_json("table1")
        assert rc == 0
        assert len(recs) == 6
        for rec in recs:
            for got, printed in zip(rec["errors"], rec["printed"]):
                assert abs(got - printed) / printed < 0.01

    def test_digits_below_oracle_floor_is_domain_error(self):
        rc, text = run_cli("table1", "--digits", "20")
        assert rc == 1
        assert text == ""


class TestVerify:
    def test_known_failure_is_isolated(self, monkeypatch):
        # Every real check passes; a failing one must set exit code 3 and be
        # the only record flagged.
        rc, recs = run_json("verify", "--cases", "1")
        assert rc == 0
        assert all(r["ok"] for r in recs)
        monkeypatch.setattr(
            verification, "check_landau_agreement",
            lambda: verification.CheckResult("landau_agreement", False,
                                             "forced failure", 0.0))
        rc, recs = run_json("verify", "--cases", "1")
        assert rc == 3
        bad = [r for r in recs if not r["ok"]]
        assert [r["name"] for r in bad] == ["landau_agreement"]

    def test_bare_verify_uses_the_suite_seed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verification, "run_all",
                            lambda **kw: calls.append(kw) or [])
        assert run_json("verify") == (0, [])
        assert run_json("verify", "--seed", "7") == (0, [])
        assert calls == [{"seed": verification.DEFAULT_SEED, "cases": 500},
                         {"seed": 7, "cases": 500}]

    @pytest.mark.parametrize("check, count", [
        ("check_engine_vs_oracle", "cases"),
    ])
    @pytest.mark.parametrize("value", [0, -3])
    def test_sweeps_need_a_positive_count(self, check, count, value):
        # an empty sweep checks nothing, so it must not report ok
        with pytest.raises(InvalidParameterError, match=count):
            getattr(verification, check)(**{count: value})

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_nonpositive_cases_is_domain_error(self, cases):
        rc, text = run_cli("verify", "--cases", cases)
        assert rc == 1
        assert text == ""


class TestEntryPoint:
    def test_module_invocation(self):
        # the child runs this checkout's package, not whichever one the
        # environment would find
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src,
                                             os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "hypersum", "landau", "-n", "3"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
            text=True)
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        assert rec["value_re"] == 1.48828125
