"""Guards for the tooling that reaches into the package from outside, and
for the package's own layering.

perfbench's tracer wraps the (module, function) pairs in its TARGETS table
by identity; a renamed or removed function would only surface when the
benchmark runs.  The table is read from the source, not imported.
"""

import ast
import importlib
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "hypersum"


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


def test_large_gamma_pairs_have_one_owner():
    # Every n-dependent gamma pair is formed in params from exact offsets;
    # a log_gamma_diff call anywhere else could round n + x again.
    owners = {"complexfn.py", "params.py"}
    strays = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ()
            if isinstance(node, ast.Name):
                names = (node.id,)
            elif isinstance(node, ast.Attribute):
                names = (node.attr,)
            elif isinstance(node, ast.ImportFrom):
                names = tuple(alias.name for alias in node.names)
            if "log_gamma_diff" in names and path.name not in owners:
                strays.append(f"{path.name}:{node.lineno}")
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
