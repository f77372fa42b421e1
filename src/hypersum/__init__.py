"""Partial sums of the Gauss hypergeometric series at unit argument.

The evaluators dispatch on the parametric excess s = c - a - b: a convergent
inverse-factorial tail for non-integer excess, psi-series forms on the
logarithmic line s = 0, and finite closed forms at integer excess, with a
psi-series tail at s = -m that vanishes when a or b is an integer in 1..m.
The same machinery specializes to the Landau constants, which get five
independent routes, a truncation bound, and the published coefficient
families.  An extended-precision oracle backs every claim;
``verification.run_all`` (or ``hypersum verify``) re-runs the whole battery.

``import hypersum`` loads what evaluation and perfbench's tracer need; the
property suite in ``verification`` loads on first use, when ``run_all`` or
``CheckResult`` is first asked of this package or the module is imported.
"""

from .coeffs import (
    CoefficientTable,
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
from .complexfn import (
    POLE_TOL,
    bernoulli_numbers,
    digamma,
    gamma,
    gamma_ratio,
    log_gamma,
)
from .engine import (
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
from .errors import (
    DivergentSeriesError,
    DomainError,
    HypersumError,
    InvalidParameterError,
    PoleError,
    PrecisionUnavailableError,
    WrongBranchError,
)
from .landau import (
    landau_asymptotic,
    landau_ck,
    landau_direct,
    landau_nemes,
    landau_theorem3,
    landau_watson,
    landau_watson_asymptotic,
)
from .oracle import (
    DEFAULT_DIGITS,
    ErrorReport,
    OracleValue,
    compare,
    digamma_ref,
    gamma_ref,
    landau_ref,
    partial_sum_ref,
)
from .params import (
    INTEGER_TOL,
    NEAR_INTEGER_WARN,
    ExcessClass,
    ParamSet,
    SeqFactors,
    classify,
    seq_factors,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTable", "a_coeffs", "asym_log", "asym_neg_int", "c0",
    "c_coeffs", "g_poly", "lambda_series", "rearranged_tail",
    "remainder_bound", "sigma_coeffs",
    "POLE_TOL", "bernoulli_numbers", "digamma", "gamma", "gamma_ratio",
    "log_gamma",
    "EvalReport", "Tolerance", "eval_auto", "eval_conjectured",
    "eval_generic", "eval_log", "eval_neg_int", "eval_pos_int",
    "leading_term",
    "DivergentSeriesError", "DomainError", "HypersumError",
    "InvalidParameterError", "PoleError", "PrecisionUnavailableError",
    "WrongBranchError",
    "landau_asymptotic", "landau_ck", "landau_direct", "landau_nemes",
    "landau_theorem3", "landau_watson", "landau_watson_asymptotic",
    "DEFAULT_DIGITS", "ErrorReport", "OracleValue", "compare", "digamma_ref",
    "gamma_ref", "landau_ref", "partial_sum_ref",
    "INTEGER_TOL", "NEAR_INTEGER_WARN", "ExcessClass", "ParamSet",
    "SeqFactors", "classify", "seq_factors",
    "CheckResult", "run_all",
    "__version__",
]


def __getattr__(name):
    # PEP 562: the two names of the property suite import it when asked for.
    if name in ("CheckResult", "run_all"):
        from . import verification
        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
