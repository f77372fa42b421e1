"""Command-line front end.

Subcommands: ``eval`` (one partial sum with branch dispatch), ``classify``
(branch diagnosis only), ``landau`` (the Landau constant routes), ``coeffs``
(coefficient tables), ``table1`` (the published error grid), and ``verify``
(the property suite).  JSON (``json.dumps``) is the default output; ``--csv``
switches to CSV (``csv.DictWriter``, list values joined with ``|``).  Floats
print as Python's shortest round-trip repr, and non-finite values as
``Infinity``/``NaN`` in JSON, which Python's ``json`` reads back.
Exit codes: 0 success; 1 when a library check refuses a value (``--tol``
included: ``Tolerance`` is its only check); 2 when argparse cannot parse the
command line; 3 when ``table1`` or ``verify`` finds a failed check.
Only ``table1`` and ``verify`` import the property suite in ``verification``.
"""

from __future__ import annotations

import argparse
import json
import sys

# coeffs, landau and oracle at import, though the package loads them on
# first use: perfbench imports this module before its tracer looks them up
# in sys.modules
from . import coeffs, engine, landau, oracle  # noqa: F401
from .complexfn import _check_index
from .engine import Tolerance
from .errors import HypersumError
from .params import LOGARITHMIC, ParamSet, classify, classify_params

_FORM_MAP = {"psi": "psi_series", "alt": "alternative"}


def _complex_arg(text: str) -> complex:
    """Parse ``re[+im i]`` (also plain reals); 'i' marks the imaginary unit."""
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex value: {text!r}")


def _cell(v):
    return "|".join(map(str, v)) if isinstance(v, list) else v


def _emit(records, args, out) -> None:
    """One dict -> JSON object / CSV row; a list -> JSON array / CSV rows."""
    if args.csv:
        import csv  # only here: JSON, the default, should not pay for it
        rows = records if isinstance(records, list) else [records]
        fields = []
        for row in rows:
            for key in row:
                if key not in fields:
                    fields.append(key)
        writer = csv.DictWriter(out, fieldnames=fields, restval="",
                                lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _cell(v) for k, v in row.items()})
    else:
        out.write(json.dumps(records) + "\n")


def _complex_str(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _report_record(rep: engine.EvalReport) -> dict:
    return {
        "value_re": rep.value.real,
        "value_im": rep.value.imag,
        "branch": rep.branch.kind,
        "terms_used": rep.terms_used,
        "est_error": rep.est_error,
        "warnings": list(rep.warnings),
        "path": rep.path,
    }


def _cmd_eval(args, out) -> int:
    pset = ParamSet(args.a, args.b, args.c)
    tol = Tolerance(rel_tol=args.tol) if args.tol is not None else Tolerance()
    if (args.form is not None
            and classify_params(pset).kind == LOGARITHMIC):
        rep = engine.eval_log(pset, args.n, tol, form=_FORM_MAP[args.form])
    else:
        rep = engine.eval_auto(pset, args.n, tol)
    _emit(_report_record(rep), args, out)
    return 0


def _cmd_classify(args, out) -> int:
    cls = classify(args.a, args.b, args.c)
    _emit({"kind": cls.kind, "m": cls.m, "p": cls.p, "which": cls.which,
           "warnings": list(cls.warnings)}, args, out)
    return 0


def _landau_one(method: str, n: int, terms: int | None, h: float) -> dict:
    """One route at Landau index n (the estimate-producing routes are indexed
    one step higher internally, so they are called at n + 1)."""
    record = {"method": method, "index": n}
    if method == "direct":
        value = landau.landau_direct(n)
    elif method == "watson":
        value = landau.landau_watson(n)
    elif method == "ck":
        value = landau.landau_ck(n)
    elif method == "thm3":
        value, bound = landau.landau_theorem3(n + 1, 10 if terms is None else terms)
        record["bound"] = bound
    elif method == "asym":
        value = landau.landau_asymptotic(n + 1, 6 if terms is None else terms)
    else:  # "nemes"
        value = landau.landau_nemes(n, h, 3 if terms is None else terms)
    record["value_re"] = float(value)
    record["value_im"] = 0.0
    return record


def _cmd_landau(args, out) -> int:
    if args.method != "all":
        _emit(_landau_one(args.method, args.n, args.terms, args.h), args, out)
        return 0
    records = []
    for method in ("direct", "watson", "ck", "thm3", "asym", "nemes"):
        try:
            records.append(_landau_one(method, args.n, args.terms, args.h))
        except HypersumError as exc:
            records.append({"method": method, "index": args.n,
                            "error": str(exc)})
    _emit(records, args, out)
    if all("error" in record for record in records):
        raise HypersumError("every method refused this index")
    return 0


def _head(fam: str, k: int | None, values: tuple) -> tuple:
    """The first --k of a family's values, all of them by default."""
    return (values if k is None else
            values[:_check_index(k, f"--k of family {fam}", 1, len(values))])


def _complex_records(values) -> list:
    return [{"k": i, "value_re": z.real, "value_im": z.imag}
            for i, z in enumerate(map(complex, values), start=1)]


def _cmd_coeffs(args, out) -> int:
    fam = args.family
    if fam in ("sigma", "A", "lambda") and (args.a is None or args.b is None):
        raise HypersumError(f"family {fam!r} needs -a and -b")
    if fam == "sigma":
        k = 6 if args.k is None else args.k
        records = _complex_records(coeffs.sigma_coeffs(args.a, args.b, k).values)
    elif fam == "A":
        records = _complex_records(
            _head(fam, args.k, coeffs.a_coeffs(args.a, args.b).values))
    elif fam == "C":
        records = [{"k": i, "value_re": float(v), "value_im": 0.0,
                    "exact": str(v)}
                   for i, v in enumerate(
                       _head(fam, args.k, coeffs.c_coeffs().values), start=1)]
    elif fam == "g":
        records = [{"k": i, "coeffs": [str(c) for c in poly]}
                   for i, poly in enumerate(
                       _head(fam, args.k, coeffs._G_POLYS), start=1)]
    else:  # "lambda"
        records = _complex_records(
            _head(fam, args.k, coeffs._lambda_coeffs(args.a, args.b)))
    _emit(records, args, out)
    return 0


def _cmd_table1(args, out) -> int:
    from . import verification
    rows, ok = verification.table_errors(args.digits)
    _emit([{"case": row.case,
            **{k: _complex_str(z) for k, z in zip("abc", row.params)},
            "n": row.n, "errors": row.errors, "printed": list(row.printed)}
           for row in rows], args, out)
    return 0 if ok else 3


def _cmd_verify(args, out) -> int:
    from . import verification
    seed = verification.DEFAULT_SEED if args.seed is None else args.seed
    results = verification.run_all(seed=seed, cases=args.cases)
    _emit([{"name": r.name, "ok": r.ok, "detail": r.detail,
            "seconds": round(r.seconds, 3)} for r in results], args, out)
    return 0 if all(r.ok for r in results) else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersum",
        description="Partial sums of the Gauss series at unit argument, "
                    "Landau constants, and coefficient tables.",
        epilog="Complex values use re[+im i] syntax, e.g. -a 0.5+1i; values "
               "starting with a minus sign need the = form, e.g. -c=-2+2i.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--csv", action="store_true",
                     help="CSV output instead of JSON")

    p = sub.add_parser("eval", parents=[fmt],
                       help="evaluate one partial sum with branch dispatch")
    p.add_argument("-a", type=_complex_arg, required=True)
    p.add_argument("-b", type=_complex_arg, required=True)
    p.add_argument("-c", type=_complex_arg, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--tol", type=float,
                   help="relative series tolerance (default "
                        f"{Tolerance().rel_tol:g})")
    p.add_argument("--form", choices=("psi", "alt"),
                   help="logarithmic-branch form (ignored on other branches)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", parents=[fmt],
                       help="diagnose the excess branch without evaluating")
    p.add_argument("-a", type=_complex_arg, required=True)
    p.add_argument("-b", type=_complex_arg, required=True)
    p.add_argument("-c", type=_complex_arg, required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("landau", parents=[fmt],
                       help="Landau constant G_n by the chosen route")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--method", default="direct",
                   choices=("direct", "watson", "ck", "thm3", "asym",
                            "nemes", "all"))
    p.add_argument("--h", type=float, default=1.0,
                   help="shift for the nemes route, in (0, 3/2)")
    p.add_argument("--terms", type=int,
                   help="depth: M for thm3 (default 10), K for asym "
                        "(default 6) and nemes (default 3)")
    p.set_defaults(func=_cmd_landau)

    p = sub.add_parser("coeffs", parents=[fmt],
                       help="emit one coefficient family")
    p.add_argument("--family", required=True,
                   choices=("sigma", "A", "C", "g", "lambda"))
    p.add_argument("-a", type=_complex_arg)
    p.add_argument("-b", type=_complex_arg)
    p.add_argument("--k", type=int, help="table depth (family default)")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("table1", parents=[fmt],
                       help="reproduce the published truncation-error grid")
    p.add_argument("--digits", type=int,
                   help="working precision (default 40)")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("verify", parents=[fmt],
                       help="run the property suite")
    p.add_argument("--seed", type=int,
                   help="random seed (default: the suite's fixed seed)")
    p.add_argument("--cases", type=int, default=500,
                   help="random parameter sets for the oracle sweep")
    p.set_defaults(func=_cmd_verify)
    return parser


def run(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, out)
    except HypersumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
