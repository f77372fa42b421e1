"""Guards for the tooling that reaches into the package from outside, and
for the package's own layering.

perfbench's tracer wraps the (module, function) pairs in its TARGETS table
by identity; a renamed or removed function would only surface when the
benchmark runs.  The table is read from the source, not imported.

Only the oracle and the verification suite use mpmath, and they import it
on first use, so ``import hypersum`` and the commands that run on the
double-precision expansions start without it.  The verification suite, the
oracle, the Landau routes and the coefficient families load on first use
too; the CLI imports every module the tracer wraps, since the tracer looks
them up in ``sys.modules`` after importing it.  Those checks run in fresh
interpreters, since this one has long since loaded mpmath.

That AST check cannot see a builtin raised inside an operation, such as
float() of an int past the double range, so every public route that takes
an index, or a numeric parameter outside a ParamSet, is also called with an
index past the double range and with NaN and infinite parameters.

No code in the package or its tests may call mpmath's hyp3f2, which is
wrong at unit argument for some parameters.

README's "Library use" block runs here, and its commented results are
checked, so that the figures the cost model sets cannot drift from the code.
Every line of its "Command line" block runs through ``cli.run``, so that an
example cannot keep a deleted flag or print what its format cannot parse.

argparse's ``choices`` are the only check of ``landau --method`` and
``coeffs --family``, and the last branch of each dispatch takes whatever is
left, so every choice is run and its record traced to its own route.
"""

import argparse
import ast
import builtins
import csv
import json
import importlib
import os
import re
import shlex
import subprocess
import sys
import types
from io import StringIO
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "hypersum"
MPMATH_USERS = {"oracle.py", "verification.py"}


def _tracer_targets():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS table in perfbench/tracer.py")


def test_tracer_targets_resolve_to_package_functions():
    targets = _tracer_targets()
    assert targets
    for module, func in targets:
        mod = importlib.import_module(f"hypersum.{module}")
        assert isinstance(getattr(mod, func, None), types.FunctionType), \
            f"hypersum.{module}.{func}"


def _strays(names: set, owners: set) -> list[str]:
    """Places in the package outside the owner modules that name (as a
    name, an attribute or an import) any of names."""
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            used = ()
            if isinstance(node, ast.Name):
                used = (node.id,)
            elif isinstance(node, ast.Attribute):
                used = (node.attr,)
            elif isinstance(node, ast.ImportFrom):
                used = tuple(alias.name for alias in node.names)
            if names.intersection(used):
                strays.append(f"{path.name}:{node.lineno}")
    return strays


def test_large_gamma_pairs_have_one_owner():
    # Every n-dependent gamma pair is formed in params from exact offsets;
    # a _log_gamma_diff call anywhere else could round n + x again.
    strays = _strays({"_log_gamma_diff"}, {"complexfn.py", "params.py"})
    assert not strays, strays


def test_unchecked_kernel_entries_stay_behind_validation():
    # The private twins skip their public functions' checks; only modules
    # whose callers hold a validated ParamSet may call them.
    unchecked = {"_log_gamma", "_digamma", "_log_gamma_diff", "_sum_hyp3f2",
                 "_sum_psi_kernel", "_sum_alt_kernel"}
    strays = _strays(unchecked, {"complexfn.py", "params.py", "_series.py",
                                 "engine.py"})
    assert not strays, strays


def test_every_exported_error_is_raised():
    # An exception class that nothing raises promises callers a failure mode
    # the package does not have.
    from hypersum import errors
    exported = {name for name in errors.__all__
                if isinstance(getattr(errors, name), type)
                and issubclass(getattr(errors, name), BaseException)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert exported
    assert not exported - raised, sorted(exported - raised)


def _resolve(node, namespace):
    """The object a Name or dotted Attribute chain names in namespace."""
    if isinstance(node, ast.Name):
        return namespace[node.id]
    return getattr(_resolve(node.value, namespace), node.attr)


def test_every_raise_is_a_package_error():
    # A refusal is a HypersumError, so callers and the CLI need one exit
    # path.  The two builtins are protocol, not refusal: AttributeError for
    # the frozen records and the package __getattr__, and argparse's
    # ArgumentTypeError for a bad CLI value.
    from hypersum.errors import HypersumError
    allowed = (AttributeError, argparse.ArgumentTypeError)
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        raises = [node for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Raise)]
        if not raises:
            continue
        name = ("hypersum" if path.stem == "__init__"
                else f"hypersum.{path.stem}")
        namespace = {**vars(builtins),
                     **vars(importlib.import_module(name))}
        for node in raises:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = None if exc is None else _resolve(exc, namespace)
            if not (isinstance(cls, type)
                    and (issubclass(cls, HypersumError) or cls in allowed)):
                strays.append(f"{path.name}:{node.lineno}")
    assert not strays, strays


def _index_routes():
    from hypersum import coeffs, engine, landau, params
    p = params.ParamSet(0.5, 0.25, 1.5)
    neg = params.ParamSet(1.5, -0.25, 0.25)
    return {
        "eval_auto": lambda n: engine.eval_auto(p, n),
        "eval_generic": lambda n: engine.eval_generic(p, n),
        "eval_log": lambda n: engine.eval_log(params.ParamSet(0.5, 0.5, 1), n),
        "eval_pos_int": lambda n: engine.eval_pos_int(
            params.ParamSet(0.5, 0.25, 2.75), n),
        "eval_neg_int": lambda n: engine.eval_neg_int(neg, n),
        "eval_conjectured": lambda n: engine.eval_conjectured(
            params.ParamSet(1, 0.5, -0.5), n),
        "leading_term": lambda n: engine.leading_term(neg, n),
        "seq_factors": lambda n: params.seq_factors(p, n),
        "landau_direct": landau.landau_direct,
        "landau_watson": landau.landau_watson,
        "landau_ck": landau.landau_ck,
        "landau_theorem3": lambda n: landau.landau_theorem3(n, 10),
        "landau_asymptotic": lambda n: landau.landau_asymptotic(n, 6),
        "landau_watson_asymptotic": landau.landau_watson_asymptotic,
        "landau_nemes": landau.landau_nemes,
        "remainder_bound": lambda n: coeffs.remainder_bound(n, 3),
        "asym_log": lambda n: coeffs.asym_log(0.5, 0.25, n, 2),
        "asym_neg_int": lambda n: coeffs.asym_neg_int(neg, n, 2),
        "lambda_series": lambda n: coeffs.lambda_series(0.5, 0.25, n, 2),
        "rearranged_tail": lambda n: coeffs.rearranged_tail(0.5, 0.25, n, 4),
    }


@pytest.mark.parametrize("route", sorted(_index_routes()))
def test_index_past_the_double_range_is_refused(route):
    # an int whose float overflows is refused before any arithmetic; the
    # largest int with a finite float passes the check
    from hypersum.complexfn import _check_index
    from hypersum.errors import HypersumError, InvalidParameterError
    call = _index_routes()[route]
    with pytest.raises(InvalidParameterError,
                       match=r"^n must be an integer (>= [01]|in 0\.\.1000000), "
                             r"got one of 1329 bits, past the double range$"):
        call(10 ** 400)
    top = _check_index(2 ** 1024 - 2 ** 970 - 1)
    assert float(top) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(top + 1)
    # an index the ceiling admits is answered or refused by the package
    for n in (top, 10 ** 300):
        try:
            call(n)
        except HypersumError:
            pass


def _coefficient_routes():
    from hypersum import coeffs
    return {
        "sigma_coeffs": lambda a: coeffs.sigma_coeffs(a, 0.5, 2),
        "c0": lambda a: coeffs.c0(a, 0.5),
        "a_coeffs": lambda a: coeffs.a_coeffs(0.5, a),
        "g_poly": lambda a: coeffs.g_poly(2, a),
        "lambda_series": lambda a: coeffs.lambda_series(a, 0.5, 10, 2),
        "asym_log": lambda a: coeffs.asym_log(0.5, a, 10, 2),
        "rearranged_tail": lambda a: coeffs.rearranged_tail(a, 0.5, 10, 4),
    }


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   complex(0.5, float("-inf"))],
                         ids=["nan", "inf", "complex_inf"])
@pytest.mark.parametrize("route", sorted(_coefficient_routes()))
def test_non_finite_coefficient_parameter_is_refused(route, value):
    # as ParamSet refuses it: no NaN answer, and no DomainError, which
    # means a finite input whose values leave the double range
    from hypersum.errors import InvalidParameterError
    with pytest.raises(InvalidParameterError, match="must be finite"):
        _coefficient_routes()[route](value)


def test_no_code_calls_mpmaths_hyp3f2():
    # mpmath 1.3.0's hyp3f2 is wrong at unit argument for some 1 + s < 0: at
    # a = 2.3, b = 1.9, c = 0.7, n = 200, hyp3f2(c-a, c-b, 1, n+c, 1+s, 1)
    # returns 102941.69 where the term-by-term sum is 0.99617.  So no
    # reference, in the package or its tests, may lean on it; the package's
    # own sum_hyp3f2 has a different name.
    strays = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = (node.attr,)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = tuple(part for alias in node.names
                              for part in alias.name.split("."))
            else:
                continue
            if "hyp3f2" in names:
                strays.append(f"{path.name}:{node.lineno}")
    assert not strays, strays


def test_package_reads_no_environment_variables():
    # Precision and tolerances are arguments and CLI options; a setting read
    # from the environment would change answers without showing in a call.
    strays = _strays({"environ", "environb", "getenv", "getenvb"}, set())
    assert not strays, strays


def _names_module(path: Path, module: str) -> list[str]:
    """Places in the module at path that import, import from or name the
    package module `module`."""
    places = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            parts += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for alias in node.names
                     for part in alias.name.split(".")]
        elif isinstance(node, ast.Name):
            parts = [node.id]
        else:
            continue
        if module in parts:
            places.append(f"{path.name}:{node.lineno}")
    return places


def test_engine_and_landau_layering():
    # The engine takes nothing from the coefficient tables, and the Landau
    # routes nothing from the engine: Tolerance lives with the series.
    strays = (_names_module(PACKAGE / "engine.py", "coeffs")
              + _names_module(PACKAGE / "landau.py", "engine"))
    assert not strays, strays


def test_oracle_imports_nothing_from_the_package_but_errors():
    # The oracle is evidence only while it shares no code with the double
    # kernels; from the package it may take the error types and nothing else.
    strays = []
    for node in ast.walk(ast.parse((PACKAGE / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if (node.level or module.split(".")[0] == "hypersum") \
                    and module not in (".errors", "hypersum.errors"):
                strays.append(f"{module}:{node.lineno}")
        elif isinstance(node, ast.Import):
            strays += [f"{alias.name}:{node.lineno}" for alias in node.names
                       if alias.name.split(".")[0] == "hypersum"
                       and alias.name != "hypersum.errors"]
    assert not strays, strays


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run this interpreter on args with the package's source on the path."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def _modules_after(statement: str) -> frozenset:
    """Names in sys.modules after `statement` runs in a fresh interpreter."""
    proc = _python("-c", f"{statement}; import sys; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.split())


def _is_mpmath(name: str) -> bool:
    return name.split(".")[0] == "mpmath"


def test_import_leaves_mpmath_unloaded():
    loaded = _modules_after("import hypersum")
    assert "hypersum.oracle" not in loaded
    assert "hypersum.verification" not in loaded
    assert not any(map(_is_mpmath, loaded))
    # the suite, once imported, still defers mpmath to its first check
    loaded = _modules_after("import hypersum.verification")
    assert "hypersum.verification" in loaded
    assert not any(map(_is_mpmath, loaded))


def test_suite_names_load_the_suite_on_first_use():
    proc = _python("-c", (
        "import sys, hypersum\n"
        "assert 'hypersum.verification' not in sys.modules\n"
        "from hypersum import verification\n"
        "assert hypersum.run_all is verification.run_all\n"
        "assert hypersum.CheckResult is verification.CheckResult\n"
        "namespace = {}\n"
        "exec('from hypersum import *', namespace)\n"
        "assert namespace['run_all'] is verification.run_all\n"
        "assert set(hypersum.__all__) <= set(namespace)\n"
        "try:\n"
        "    hypersum.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('hypersum.no_such_name resolved')\n"))
    assert proc.returncode == 0, proc.stderr


def test_lazy_exports_are_their_owners_objects():
    # landau, coeffs and oracle resolve on the package without an import of
    # their own, and every name in __all__, lazy or not, is its owner's
    # object.
    proc = _python("-c", (
        "import sys, hypersum\n"
        "assert hypersum.landau.landau_ck(20) == 2.0316076374013132\n"
        "assert hypersum.coeffs.c_coeffs().kind == 'C'\n"
        "ref = hypersum.partial_sum_ref(0.5, 0.5, 1.0, 3).as_complex()\n"
        "assert ref == 1.390625, ref\n"
        "namespace = {}\n"
        "exec('from hypersum import *', namespace)\n"
        "for name in hypersum.__all__:\n"
        "    value = namespace[name]\n"
        "    assert value is getattr(hypersum, name), name\n"
        "    owner = getattr(value, '__module__', '')\n"
        "    if owner.startswith('hypersum.'):\n"
        "        assert value is getattr(sys.modules[owner], name), name\n"
        "for module in ('coeffs', 'landau', 'oracle', 'verification'):\n"
        "    assert getattr(hypersum, module) is sys.modules[f'hypersum.{module}']\n"))
    assert proc.returncode == 0, proc.stderr


def test_oracle_checks_parameters_without_loading_fractions():
    proc = _python("-c", (
        "import sys\n"
        "from hypersum import oracle\n"
        "from hypersum.errors import InvalidParameterError\n"
        "assert oracle._exact(0.5 - 2j, 'a') == (0.5, -2.0)\n"
        "assert oracle._exact(3, 'a') == (3, 0)\n"
        "try:\n"
        "    oracle._exact('0.5', 'a')\n"
        "except InvalidParameterError as exc:\n"
        "    assert str(exc) == 'a has unsupported type str', exc\n"
        "else:\n"
        "    raise SystemExit('a str parameter was accepted')\n"
        "assert 'fractions' not in sys.modules\n"
        "from fractions import Fraction\n"
        "assert oracle._exact(Fraction(1, 3), 'a') == (Fraction(1, 3), 0)\n"
        "from hypersum import bernoulli_numbers\n"
        "assert all(type(b) is Fraction for b in bernoulli_numbers(3))\n"))
    assert proc.returncode == 0, proc.stderr


def test_lazy_names_read_in_a_running_tracer_leave_no_wrapper():
    # perfbench starts its tracer after `import hypersum.cli`, which must
    # load every TARGETS module, the lazy coeffs, landau and oracle among
    # them.  The package hook binds none of the names it serves, so a name
    # read while the tracer runs is not cached as its wrapper.
    required = sorted({f"hypersum.{module}" for module, _ in _tracer_targets()})
    proc = _python("-c", (
        "import sys, hypersum.cli\n"
        f"missing = set({required!r}) - set(sys.modules)\n"
        "assert not missing, missing\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from tracer import Tracer, leftovers\n"
        "with Tracer():\n"
        "    for name in hypersum.__all__:\n"
        "        getattr(hypersum, name)\n"
        "assert not leftovers(), leftovers()\n"
        "for name in hypersum.__all__:\n"
        "    getattr(hypersum, name)\n"
        "owners = {'hypersum.coeffs', 'hypersum.landau', 'hypersum.oracle'}\n"
        "bound = [name for name, value in vars(hypersum).items()\n"
        "         if getattr(value, '__module__', None) in owners]\n"
        "assert not bound, bound\n"))
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # The records build on errors.Record: dataclasses and the inspect chain
    # it pulls in cost a third of the package import.
    loaded = _modules_after("import hypersum.cli")
    assert "hypersum.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_oracle_loads_mpmath_on_first_use():
    proc = _python("-c", (
        "import sys, hypersum\n"
        "assert 'mpmath' not in sys.modules\n"
        "ref = hypersum.partial_sum_ref(0.5, 0.5, 1.0, 10)\n"
        "assert 'mpmath' in sys.modules\n"
        "print(repr(ref.as_complex()))"))
    assert proc.returncode == 0, proc.stderr
    # S_10(1/2, 1/2; 1) = sum_{k<10} (binom(2k, k) / 4^k)^2
    assert complex(proc.stdout) == pytest.approx(1.7913439415860921, rel=1e-15)


def test_tracer_targets_are_loaded_by_the_package_import():
    # The tracer looks each TARGETS module up in sys.modules when it starts;
    # a package module imported lazily would be missing there.
    loaded = _modules_after("import hypersum, hypersum.cli")
    missing = [module for module, _ in _tracer_targets()
               if f"hypersum.{module}" not in loaded]
    assert not missing, missing


def test_modules_loaded_on_first_use_bind_no_tracer_target():
    # A module that loads on first use may load inside a running tracer. A
    # target it bound by name would then be the wrapper, and the tracer,
    # which restores only the modules loaded when it started, would leave
    # it there.
    eager = _modules_after("import hypersum, hypersum.cli")
    lazy = [path.stem for path in sorted(PACKAGE.glob("*.py"))
            if path.stem not in ("__init__", "__main__")
            and f"hypersum.{path.stem}" not in eager]
    assert lazy == ["verification"]
    targets = {id(getattr(importlib.import_module(f"hypersum.{module}"), func))
               for module, func in _tracer_targets()}
    strays = [f"{name}.{attr}" for name in lazy
              for attr, value in vars(importlib.import_module(
                  f"hypersum.{name}")).items()
              if id(value) in targets]
    assert not strays, strays


def test_package_import_loads_exactly_these_modules():
    # What `import hypersum` pays for: evaluation alone.  coeffs, landau and
    # oracle load on first use, since the tracer, which looks every TARGETS
    # module up in sys.modules, starts only after `import hypersum.cli`,
    # which imports all three.  fractions, and the decimal module it
    # imports, load with coeffs and landau; numbers with landau and oracle.
    # A new eager import, or a new module on the import path, lands here.
    loaded = _modules_after("import hypersum")
    assert {name for name in loaded if name.split(".")[0] == "hypersum"} == {
        "hypersum", "hypersum._series", "hypersum.complexfn",
        "hypersum.engine", "hypersum.errors", "hypersum.params"}
    assert not {"numbers", "fractions", "decimal"} & loaded


# The commands that import the verification suite; every other one runs
# without it.
SUITE_COMMANDS = {"table1", "verify"}


@pytest.mark.parametrize("argv, uses_mpmath", [
    (["eval", "-a", "2.3", "-b", "1.9", "-c", "0.7", "-n", "1000000"], False),
    (["classify", "-a", "2.3", "-b", "1.9", "-c", "0.7"], False),
    (["landau", "-n", "1", "--method", "all"], False),
    (["coeffs", "--family", "sigma", "-a", "0.5", "-b", "0.5"], False),
    (["table1"], True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_cli_loads_mpmath_only_where_it_needs_it(argv, uses_mpmath):
    proc = _python("-X", "importtime", "-m", "hypersum", *argv)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "hypersum.engine" in imported
    assert any(map(_is_mpmath, imported)) == uses_mpmath
    assert ("hypersum.verification" in imported) == (argv[0] in SUITE_COMMANDS)


def _mpmath_imports(tree: ast.AST) -> list[tuple[int, bool]]:
    """(line, inside a function) for each import of mpmath in tree."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            names = ()
            if isinstance(child, ast.Import):
                names = tuple(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = (child.module,)
            if any(map(_is_mpmath, names)):
                found.append((child.lineno, in_function))
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


def test_mpmath_is_imported_only_inside_oracle_and_verification_functions():
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = _mpmath_imports(tree)
        if path.name in MPMATH_USERS:
            assert imports, f"{path.name} no longer imports mpmath"
            strays += [f"{path.name}:{line} (module level)"
                       for line, in_function in imports if not in_function]
        else:
            strays += [f"{path.name}:{line}" for line, _ in imports]
            strays += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and node.id == "mpmath"]
    assert not strays, strays


def _library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_use_block_runs_as_commented():
    block = _library_use_block()
    call = re.search(r"eval_auto\((ParamSet\(.*?\)), (\d+)\)", block)
    namespace = {}
    literals = firsts = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not comment:
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        literal = re.match(r"\s*(\([^)]*\)|'[^']*')", comment)
        if literal:
            assert got == ast.literal_eval(literal.group(1)), line
            literals += 1
        first = re.search(r"'expansion' from n = (\d+) on", comment)
        if first:
            # every index from the block's own up to the stated one answers
            # by the direct sum, and that one by the expansion
            p, n = eval(call.group(1), namespace), int(call.group(2))
            paths = [namespace["eval_auto"](p, m).path
                     for m in range(n, int(first.group(1)) + 1)]
            assert paths == ["direct_sum"] * (len(paths) - 1) + ["expansion"]
            firsts += 1
    assert (literals, firsts) == (3, 1)


def _command_line_block() -> list:
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.strip()]


def test_readme_command_line_block_runs():
    from hypersum import cli

    commands = _command_line_block()
    assert len(commands) == 7
    for argv in commands:
        assert argv[0] == "hypersum", argv
        buf = StringIO()
        assert cli.run(argv[1:], out=buf) == 0, argv
        text = buf.getvalue()
        if "--csv" in argv:
            rows = list(csv.reader(StringIO(text)))
            assert len(rows) > 1, argv
            assert all(len(row) == len(rows[0]) for row in rows), argv
        else:
            json.loads(text)


def _cli_choices(cli, command, option):
    parser = cli._build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    action, = (a for a in sub.choices[command]._actions
               if option in a.option_strings)
    return action.choices


def _cli_records(cli, *argv):
    buf = StringIO()
    assert cli.run(list(argv), out=buf) == 0, argv
    return json.loads(buf.getvalue())


def test_every_cli_choice_dispatches_to_its_own_route():
    from hypersum import cli, coeffs, landau

    # at Landau index 50, with the CLI's default depths and shift
    routes = {
        "direct": lambda n: landau.landau_direct(n),
        "watson": lambda n: landau.landau_watson(n),
        "ck": lambda n: landau.landau_ck(n),
        "thm3": lambda n: landau.landau_theorem3(n + 1, 10)[0],
        "asym": lambda n: landau.landau_asymptotic(n + 1, 6),
        "nemes": lambda n: landau.landau_nemes(n, 1.0, 3),
    }
    methods = [m for m in _cli_choices(cli, "landau", "--method")
               if m != "all"]
    assert sorted(methods) == sorted(routes)
    want = {m: route(50) for m, route in routes.items()}
    # distinct, so a choice answered by another route would show
    assert len(set(want.values())) == len(want)
    for method in methods:
        rec = _cli_records(cli, "landau", "-n", "50", "--method", method)
        assert rec["method"] == method
        assert rec["value_re"] == want[method], method
        assert ("bound" in rec) == (method == "thm3")

    a, b = 0.3, 0.45
    fields = {
        "sigma": [complex(v) for v in coeffs.sigma_coeffs(a, b, 6).values],
        "A": [complex(v) for v in coeffs.a_coeffs(a, b).values],
        "C": [str(v) for v in coeffs.c_coeffs().values],
        "g": [[str(c) for c in poly] for poly in coeffs._G_POLYS],
        "lambda": [complex(v) for v in coeffs._lambda_coeffs(a, b)],
    }
    families = _cli_choices(cli, "coeffs", "--family")
    assert sorted(families) == sorted(fields)
    for fam in families:
        recs = _cli_records(cli, "coeffs", "--family", fam,
                            "-a", str(a), "-b", str(b))
        assert [r["k"] for r in recs] == list(range(1, len(recs) + 1))
        if fam == "C":
            got = [r["exact"] for r in recs]
        elif fam == "g":
            got = [r["coeffs"] for r in recs]
        else:
            got = [complex(r["value_re"], r["value_im"]) for r in recs]
        assert got == fields[fam], fam
