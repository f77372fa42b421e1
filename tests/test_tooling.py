"""Guards for the tooling that reaches into the package from outside.

perfbench's tracer wraps the (module, function) pairs in its TARGETS table
by identity; a renamed or removed function would only surface when the
benchmark runs.  The table is read from the source, not imported.
"""

import ast
import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
