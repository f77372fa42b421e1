"""The package's result records: immutable values, compared and hashed by
type and field values, with the field order and repr of a frozen dataclass,
built without the dataclasses module."""

import inspect
import pickle

import mpmath
import pytest

from hypersum._series import SeriesResult, Tolerance
from hypersum.coeffs import CoefficientTable
from hypersum.engine import EvalReport
from hypersum.oracle import ErrorReport, OracleValue
from hypersum.params import ExcessClass, ParamSet, SeqFactors
from hypersum.verification import CheckResult

_BRANCH = ExcessClass("negative_integer", 3, 1, "a", ("w",))

# record type, a factory of equal instances, field names and defaults, repr
RECORDS = [
    (ParamSet, lambda: ParamSet(1, 2.5, 0.25), ("a", "b", "c"), {},
     "ParamSet(a=(1+0j), b=(2.5+0j), c=(0.25+0j))"),
    (ExcessClass, lambda: ExcessClass("negative_integer", 3, 1, "a", ("w",)),
     ("kind", "m", "p", "which", "warnings"),
     {"m": None, "p": None, "which": None, "warnings": ()},
     "ExcessClass(kind='negative_integer', m=3, p=1, which='a', "
     "warnings=('w',))"),
    (SeqFactors, lambda: SeqFactors(1 + 1j, 2.0), ("omega_n", "lambda_n"), {},
     "SeqFactors(omega_n=(1+1j), lambda_n=2.0)"),
    (SeriesResult, lambda: SeriesResult(1j, 3, 1e-16, False),
     ("value", "terms_used", "est_error", "hit_max"), {},
     "SeriesResult(value=1j, terms_used=3, est_error=1e-16, hit_max=False)"),
    (Tolerance, lambda: Tolerance(1e-12, 50), ("rel_tol", "max_terms"),
     {"rel_tol": 1e-15, "max_terms": 1_000_000},
     "Tolerance(rel_tol=1e-12, max_terms=50)"),
    (EvalReport, lambda: EvalReport(1 + 2j, _BRANCH, 4, 1e-15, ("x",),
                                    "direct_sum"),
     ("value", "branch", "terms_used", "est_error", "warnings", "path"),
     {"warnings": (), "path": "expansion"},
     "EvalReport(value=(1+2j), branch=ExcessClass(kind='negative_integer', "
     "m=3, p=1, which='a', warnings=('w',)), terms_used=4, est_error=1e-15, "
     "warnings=('x',), path='direct_sum')"),
    (CoefficientTable, lambda: CoefficientTable("sigma", (0.5, 0.5),
                                                (1.0, 2.5)),
     ("kind", "params", "values"), {},
     "CoefficientTable(kind='sigma', params=(0.5, 0.5), values=(1.0, 2.5))"),
    (OracleValue, lambda: OracleValue(mpmath.mpc(1, 2), 40),
     ("value", "digits"), {},
     "OracleValue(value=mpc(real='1.0', imag='2.0'), digits=40)"),
    (ErrorReport, lambda: ErrorReport(1e-17, 2e-16, 40),
     ("abs_err", "rel_err", "reference_precision"), {},
     "ErrorReport(abs_err=1e-17, rel_err=2e-16, reference_precision=40)"),
    (CheckResult, lambda: CheckResult("series", True, "ok", 0.25),
     ("name", "ok", "detail", "seconds"), {},
     "CheckResult(name='series', ok=True, detail='ok', seconds=0.25)"),
]
IDS = [r[0].__name__ for r in RECORDS]
# a valid change of fields, where moving the second field's value into the
# first would not be
_CHANGE = {Tolerance: {"max_terms": 7}}


@pytest.mark.parametrize("cls, make, names, defaults, text", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_in_order_with_defaults(self, cls, make, names, defaults,
                                           text):
        assert cls._fields == names
        assert cls.__match_args__ == names
        params = list(inspect.signature(cls).parameters.values())
        assert tuple(p.name for p in params) == names
        for p in params:
            assert p.default == defaults.get(p.name, inspect.Parameter.empty)

    def test_repr(self, cls, make, names, defaults, text):
        assert repr(make()) == text

    def test_frozen(self, cls, make, names, defaults, text):
        record = make()
        for name in names + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        assert record == make()

    def test_equal_records_compare_and_hash_equal(self, cls, make, names,
                                                  defaults, text):
        one, two = make(), make()
        assert one is not two
        assert one == two and hash(one) == hash(two)
        assert one != tuple(getattr(one, name) for name in names)
        with pytest.raises(TypeError):
            iter(one)
        assert pickle.loads(pickle.dumps(one)) == one

    def test_replace_and_keywords(self, cls, make, names, defaults, text):
        # A changed copy is built by keywords: records have no replace().
        record = make()
        values = {name: getattr(record, name) for name in names}
        assert cls(**values) == record
        change = _CHANGE.get(cls, {names[0]: values[names[1]]})
        changed = cls(**{**values, **change})
        assert {name: getattr(changed, name) for name in change} == change
        assert changed != record


def test_defaults_fill_omitted_fields():
    assert ExcessClass("generic") == ExcessClass("generic", None, None, None,
                                                 ())
    assert ExcessClass("generic") != ExcessClass("generic", warnings=("x",))
    report = EvalReport(1j, _BRANCH, 2, 0.0)
    assert (report.warnings, report.path) == ((), "expansion")
    assert Tolerance() == Tolerance(1e-15, 1_000_000)


def test_records_of_different_types_differ():
    assert SeqFactors(1, 40) != OracleValue(1, 40)
    assert SeqFactors(1, 40).__eq__(OracleValue(1, 40)) is NotImplemented

