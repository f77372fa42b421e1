"""The package's result records: frozen, compared and hashed by value, with
the field order and repr of a plain frozen dataclass."""

import dataclasses
import pickle

import pytest

from hypersum._series import SeriesResult
from hypersum.engine import EvalReport
from hypersum.params import ExcessClass, ParamSet

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
    (SeriesResult, lambda: SeriesResult(1j, 3, 1e-16, False),
     ("value", "terms_used", "est_error", "hit_max"), {},
     "SeriesResult(value=1j, terms_used=3, est_error=1e-16, hit_max=False)"),
    (EvalReport, lambda: EvalReport(1 + 2j, _BRANCH, 4, 1e-15, ("x",),
                                    "direct_sum"),
     ("value", "branch", "terms_used", "est_error", "warnings", "path"),
     {"warnings": (), "path": "expansion"},
     "EvalReport(value=(1+2j), branch=ExcessClass(kind='negative_integer', "
     "m=3, p=1, which='a', warnings=('w',)), terms_used=4, est_error=1e-15, "
     "warnings=('x',), path='direct_sum')"),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, make, names, defaults, text", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_in_order_with_defaults(self, cls, make, names, defaults,
                                           text):
        fields = dataclasses.fields(cls)
        assert tuple(f.name for f in fields) == names
        assert cls.__match_args__ == names
        for f in fields:
            assert f.default == defaults.get(f.name, dataclasses.MISSING)

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
        assert one != dataclasses.astuple(one)
        assert pickle.loads(pickle.dumps(one)) == one

    def test_replace_and_keywords(self, cls, make, names, defaults, text):
        record = make()
        values = {name: getattr(record, name) for name in names}
        assert cls(**values) == record
        changed = dataclasses.replace(record, **{names[1]: values[names[2]]})
        assert getattr(changed, names[1]) == values[names[2]]
        assert changed != record


def test_defaults_fill_omitted_fields():
    assert ExcessClass("generic") == ExcessClass("generic", None, None, None,
                                                 ())
    assert ExcessClass("generic") != ExcessClass("generic", warnings=("x",))
    report = EvalReport(1j, _BRANCH, 2, 0.0)
    assert (report.warnings, report.path) == ((), "expansion")
