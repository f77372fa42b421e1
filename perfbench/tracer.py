"""Spans around the package's layer boundaries, recorded from outside.

While a Tracer is active, each listed function is replaced, in every
``hypersum.*`` module namespace that holds it (found by identity), by a
wrapper that records a span: name, start, end and parent.  Leaving the
``with`` block puts the originals back.  Spans live in flat arrays; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import defaultdict

# (module, function) pairs wrapped while tracing, in layer order.
TARGETS = (
    ("complexfn", "gamma_ratio"), ("complexfn", "digamma"),
    ("params", "classify"), ("params", "seq_factors"),
    ("_series", "sum_hyp3f2"), ("_series", "sum_psi_kernel"),
    ("_series", "sum_alt_kernel"), ("_series", "_run"),
    ("engine", "eval_auto"), ("engine", "eval_generic"), ("engine", "eval_log"),
    ("engine", "eval_pos_int"), ("engine", "eval_neg_int"),
    ("engine", "eval_conjectured"),
    ("landau", "landau_direct"), ("landau", "landau_watson"),
    ("landau", "landau_ck"), ("landau", "landau_theorem3"),
    ("landau", "landau_asymptotic"), ("landau", "landau_watson_asymptotic"),
    ("landau", "landau_nemes"),
    ("coeffs", "sigma_coeffs"), ("coeffs", "c_coeffs"), ("coeffs", "c0"),
    ("coeffs", "g_poly"), ("coeffs", "remainder_bound"),
    ("oracle", "partial_sum_ref"), ("oracle", "landau_ref"),
    ("cli", "run"),
)


def _package_modules() -> list[types.ModuleType]:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "hypersum" or name.startswith("hypersum.")]


def leftovers() -> list[str]:
    """Package attributes still bound to a tracing wrapper (should be none)."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items()
            if isinstance(value, types.FunctionType) and hasattr(value, "span")]


def span_name(module: str, func: str) -> str:
    """Metric-safe span name: the private ``_series`` module is ``series``."""
    return f"{module.lstrip('_')}.{func.lstrip('_')}"


# Per-span facts read off arguments or results: the series loop's term count
# and cap flag, and the oracle sum's length.
_NOTES = {
    "series.run": lambda args, result: (result.terms_used, result.hit_max),
    "oracle.partial_sum_ref": lambda args, result: args[3],
}


class Tracer:
    """Context manager that records spans of TARGETS while active."""

    def __init__(self) -> None:
        self.names: list[str] = [span_name(m, f) for m, f in TARGETS]
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        note = _NOTES.get(self.names[name_id])
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(args, result)
            return result

        traced.span = self.names[name_id]
        return traced

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        try:
            for name_id, (module, func) in enumerate(TARGETS):
                original = getattr(sys.modules[f"hypersum.{module}"], func)
                wrapper = self._wrap(name_id, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __len__(self) -> int:
        return len(self.starts)

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        dur = self.durations()
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        return own

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Totals per span name over all recorded spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        names = tracer.names
        self.count: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.roots = 0
        self.root_ns = 0
        dur = tracer.durations()
        for i, own in enumerate(tracer.self_times()):
            name = names[tracer.name_ids[i]]
            self.count[name] += 1
            self.self_ns[name] += own
            self.total_ns[name] += dur[i]
            if tracer.parents[i] < 0:
                self.roots += 1
                self.root_ns += dur[i]

    def layer_self_ns(self, layer: str) -> int:
        return sum(v for k, v in self.self_ns.items()
                   if k.startswith(layer + "."))

    def notes_of(self, name: str) -> list:
        tr = self.tracer
        name_id = tr.names.index(name)
        return [v for i, v in tr.notes.items() if tr.name_ids[i] == name_id]

    def share_with_child(self, parents: tuple[str, ...], child: str) -> float:
        """Share of spans named in `parents` that have a direct `child` span."""
        tr = self.tracer
        ids = {tr.names.index(p) for p in parents}
        child_id = tr.names.index(child)
        calls = {i for i, n in enumerate(tr.name_ids) if n in ids}
        hit = {tr.parents[i] for i, n in enumerate(tr.name_ids)
               if n == child_id and tr.parents[i] in calls}
        return len(hit) / len(calls) if calls else 0.0
