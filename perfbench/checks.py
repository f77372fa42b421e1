"""The failure rule, applied to every call, and the oracle check behind it.

A call fails when it raises, returns a non-finite value or error estimate,
or the extended-precision oracle finds it further from the truth than it
claims:

- eval_auto: |value - ref| > est_error, checked for every case with
  n <= ORACLE_CAP (the oracle sums term by term, ~20-50 us per term);
- landau_direct, landau_watson, landau_ck: relative gap to landau_ref above
  the 1e-11 bar of acceptance test 3;
- landau_theorem3: |value - ref| above the bound it returns itself;
- the asymptotic routes: only finiteness, since they promise no bound.

A failing call is counted, never dropped; the share that passes is the
pass_ratio metric.  Separately, a raise, a non-finite result, or a value off
by more than WRONG_REL (0.1 %) from the oracle is a wrong answer, whatever
error it claims: it counts in the result line's `failed` and marks the whole
run incorrect.  A smaller miss beyond the claimed error is an error bar that
does not cover; it breaks the failure rule and lowers pass_ratio, but the
answer is usable, so it is not in `failed` and the run stays correct.  At
n >= 1e3 such misses are common (Re s < 0 draws under-cover up to ~20x, and
near-integer excesses lose up to ~2e-5 relative), and they are left showing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ORACLE_CAP = 2000
LANDAU_BAR = 1e-11
WRONG_REL = 1e-3
BOUNDED_LANDAU = ("landau_direct", "landau_watson", "landau_ck")


@dataclass(frozen=True)
class Outcome:
    """What one call returned: value, error claim, term count, or the error."""

    value: complex | None = None
    est_error: float | None = None
    terms: int | None = None
    error: str | None = None


def outcome_of(case, result) -> Outcome:
    if case.func == "eval_auto":
        return Outcome(complex(result.value), float(result.est_error),
                       result.terms_used)
    if case.func == "landau_theorem3":
        value, bound = result
        return Outcome(complex(value), float(bound))
    return Outcome(complex(result))


def _finite(z) -> bool:
    return z is not None and math.isfinite(abs(z))


class Verdict:
    """Failure flags per case, in order, and the worst cases seen."""

    def __init__(self) -> None:
        self.failed: list[bool] = []
        self.wrong: list[bool] = []
        self.checked = 0
        self.worst_ratio = 0.0
        self.worst_ratio_at = ""
        self.worst_rel = 0.0
        self.worst_rel_at = ""
        self.problems: list[str] = []

    def add(self, case, out: Outcome, hypersum) -> None:
        """Apply the failure rule to one case's outcome."""
        failed, wrong = self._judge(case, out, hypersum.oracle)
        self.failed.append(failed)
        self.wrong.append(wrong)

    def _judge(self, case, out: Outcome, oracle) -> tuple[bool, bool]:
        if out.error is not None or not _finite(out.value) or (
                out.est_error is not None and not math.isfinite(out.est_error)):
            self.problems.append(f"{case}: {out}")
            return True, True
        if case.func == "eval_auto":
            if case.n > ORACLE_CAP:
                return False, False
            ref = oracle.partial_sum_ref(*case.args, case.n)
        elif case.func in BOUNDED_LANDAU or case.func == "landau_theorem3":
            ref = oracle.landau_ref(case.n)
        else:
            return False, False
        err = oracle.compare(out.value, ref)
        limit = out.est_error
        if limit is None:
            limit = LANDAU_BAR * abs(ref.as_complex())
        ratio = (err.abs_err / limit if limit > 0
                 else math.inf if err.abs_err > 0 else 0.0)
        where = f"{case.func}{case.args} n={case.n}"
        self.checked += 1
        if case.func == "eval_auto" and ratio > self.worst_ratio:
            self.worst_ratio, self.worst_ratio_at = ratio, where
        if err.rel_err > self.worst_rel:
            self.worst_rel, self.worst_rel_at = err.rel_err, where
        return err.abs_err > limit, err.rel_err > WRONG_REL
