"""Benchmark of the hypersum package: seeded workloads, checked answers.

Usage, from the repository root:

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 12 --trace 0

One process, one thread, closed loop: each call starts when the previous one
has returned.  The workload's cases are built from the seed, then run in
whole shuffled passes for about --seconds (at least one pass).  Times are
scaled to a reference CPU speed (see speed.py).  Every distinct case is
then checked against the mpmath oracle (see checks.py); identical inputs
must give identical outputs on every pass.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced for half
the time, then traced for the other half, and prints the per-layer metrics.
The report lines come first; the last line is one JSON object with keys
correct, attempted, failed and metrics, where failed counts the calls with a
wrong answer (see checks.py); calls that only under-cover their error
estimate show in pass_ratio and fail_ratio.  The package is imported from
src/ of the same checkout, never from anywhere else; without it the script
exits with status 1 before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fresh-process measurements repeat until both a launch count and a time
# budget are reached, twice per run; their medians are reported.
MIN_LAUNCHES = 2
SETUP_BUDGET_S = 0.6
CLI_BUDGET_S = 1.0
# A check shorter than this is repeated and its median reported.
ORACLE_BUDGET_S = 2.0
# Latency samples per case.  Where fewer whole passes fit, cases whose
# calls take under TOPUP_BELOW_S get extra passes over them alone, while
# one more fits in TOPUP_SHARE of the time budget: single calls of a few ms
# swing by up to 2x on a shared host, and a pass of small_n or verify_draw
# is longer than a run.
SAMPLES = 5
TOPUP_BELOW_S = 0.005
TOPUP_SHARE = 0.5
CHILD_TIMEOUT_S = 60
# Highest of these with at least ten samples beyond it is the reported tail.
TAIL_LEVELS = (99.999, 99.99, 99.9, 99.0, 90.0, 50.0)
LARGE_N_CLI_CASE = (2.3, 1.9, 0.7, 1_000_000)
CLI_COMMANDS = {
    "verify_draw": ["table1"],
    "large_n": ["eval"] + [word for flag, value in zip("abcn", LARGE_N_CLI_CASE)
                           for word in (f"-{flag}", str(value))],
    "small_n": ["landau", "-n", "1", "--method", "all"],
}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import {0}; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "calls_per_s": "1/s", "latency_p50_us": "us", "latency_tail_us": "us",
    "pass_ratio": "ratio", "oracle_check_s": "s", "setup_s": "s",
    "cli_cold_s": "s",
}
LANDAU_ROUTE_NAMES = tuple(route for route, _, _ in workloads.LANDAU_ROUTES)
COEFF_FUNCS = ("sigma_coeffs", "c_coeffs", "c0", "g_poly", "remainder_bound")
PER_LAYER_UNITS = {
    "complexfn.gamma_ratio.calls_per_call": "count",
    "complexfn.gamma_ratio.self_us": "us",
    "complexfn.digamma.self_us": "us",
    "complexfn.self_share": "ratio",
    "params.classify.calls_per_call": "count",
    "params.classify.self_us": "us",
    "params.seq_factors.self_us": "us",
    "series.terms_per_call": "count",
    "series.us_per_term": "us",
    "series.capped_share": "ratio",
    "engine.self_us": "us",
    "engine.worst_err_over_est": "ratio",
    **{f"engine.curve.{b}.n{n}.{q}": unit
       for b in workloads.CURVE_BRANCHES for n in workloads.ALL_CURVE_N
       for q, unit in (("us", "us"), ("terms", "count"))},
    **{f"landau.{r.removeprefix('landau_')}.self_us": "us"
       for r in LANDAU_ROUTE_NAMES},
    "landau.fallback_share": "ratio",
    **{f"coeffs.{f}.self_us": "us" for f in COEFF_FUNCS},
    "oracle.partial_sum_ref.us_per_term": "us",
    "oracle.calls": "count",
    "cli.run.self_us": "us",
    "setup.mpmath_import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_package():
    """Import hypersum from this checkout's src/ or stop with status 1."""
    if not (SRC / "hypersum" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypersum
    import hypersum.cli
    if Path(hypersum.__file__).resolve().parent != SRC / "hypersum":
        raise SystemExit(f"error: imported hypersum from {hypersum.__file__}")
    return hypersum


def call(hs, case):
    """One workload call; module attributes are looked up at call time so
    that a running Tracer sees it."""
    if case.func == "eval_auto":
        return hs.engine.eval_auto(hs.params.ParamSet(*case.args), case.n)
    return getattr(hs.landau, case.func)(*case.args)


def timed_call(hs, case) -> tuple[int, checks.Outcome]:
    clock = time.perf_counter_ns
    start = clock()
    try:
        result = call(hs, case)
    except Exception as exc:  # a raising call is a counted failure
        elapsed = clock() - start
        return elapsed, checks.Outcome(error=f"{type(exc).__name__}: {exc}")
    elapsed = clock() - start
    return elapsed, checks.outcome_of(case, result)


class Passes:
    """Whole passes over the cases, for about `seconds`, then top-ups.

    Passes run while one more pass, as long as the last one, still fits in
    the budget; there is always at least one.  With `topup`, extra passes
    over the cheap cases follow (see SAMPLES); they add latency samples but
    no pass.  Objects alive before the loop (cases, outcomes, modules) are
    frozen out of the garbage collector for its duration, so collections
    scan what the package's calls allocate, not the harness's heap.
    """

    def __init__(self, hs, cases, seconds: float, outcomes: list,
                 topup: bool = True) -> None:
        self.hs, self.outcomes = hs, outcomes
        self.clock = clock = speed.ScaledClock()
        self.cases = len(cases)
        self.owner: list[int] = []   # the case of each timed call
        self.ends = [0]
        self.mismatches = 0
        gc.collect()
        gc.freeze()
        try:
            self._repeat(list(enumerate(cases)), seconds,
                         lambda: self.ends.append(len(clock.raw)))
            if topup and self.passes < SAMPLES:
                cheap = [(i, case) for i, case in enumerate(cases)
                         if clock.raw[i] < TOPUP_BELOW_S]
                self._repeat(cheap, TOPUP_SHARE * seconds, lambda: None,
                             SAMPLES - self.passes)
        finally:
            gc.unfreeze()
        self.raw = clock.raw
        self.scaled = clock.scaled()
        self.kernel_s = clock.kernel_s

    def _repeat(self, cases, seconds: float, done, most: int = 0) -> None:
        """Passes over (index, case) pairs while one more fits in seconds,
        at least one and at most `most` (0: no limit)."""
        start = time.perf_counter()
        count = 0
        while True:
            begin = time.perf_counter()
            for i, case in cases:
                ns, out = timed_call(self.hs, case)
                self.clock.add(ns / 1e9)
                self.owner.append(i)
                if self.outcomes[i] is None:
                    self.outcomes[i] = out
                elif self.outcomes[i] != out:
                    self.mismatches += 1
            self.clock.flush()
            done()
            count += 1
            now = time.perf_counter()
            if count == most or now - start + (now - begin) > seconds:
                break

    @property
    def passes(self) -> int:
        return len(self.ends) - 1

    @property
    def calls(self) -> int:
        return len(self.raw)

    @property
    def scale(self) -> float:
        """Scaled over raw time of the whole loop."""
        return sum(self.scaled) / sum(self.raw)

    def calls_per_s(self, durations: list[float]) -> float:
        """Calls per second of call time in each whole pass, median over
        passes; top-up calls are not in it."""
        return statistics.median(
            (hi - lo) / sum(durations[lo:hi])
            for lo, hi in zip(self.ends, self.ends[1:]))

    def case_latencies_us(self, durations: list[float]) -> list[float]:
        """Per case, the median latency of all its calls, top-ups included.

        Cases are the latency samples: repeat calls of one input do the same
        work and differ only by machine noise, which the median drops.
        """
        calls: list[list[float]] = [[] for _ in range(self.cases)]
        for case, seconds in zip(self.owner, durations):
            calls[case].append(seconds)
        return [1e6 * statistics.median(c) for c in calls]


def tail(latencies) -> tuple[float, float]:
    """(level, value): the highest TAIL_LEVELS percentile with at least ten
    samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    count = len(ordered)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100.0 * count)
        if count - rank >= 10:
            return level, ordered[rank - 1]
    raise ValueError(f"{count} samples are too few for a tail percentile")


def launch(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)


def bare_start() -> float:
    """Wall time of `python -c pass`: the yardstick of fresh processes."""
    start = time.perf_counter()
    proc = launch(["-c", "pass"])
    if proc.returncode != 0:
        raise RuntimeError(f"bare interpreter failed: {proc.stderr}")
    return time.perf_counter() - start


def launches(argv: list[str], budget_s: float, parse) -> speed.LaunchClock:
    """Launch `python argv` until MIN_LAUNCHES and budget_s are both
    reached; parse(proc, wall_seconds) gives each launch's time, which is
    scaled by bare interpreter starts right before and after the launch."""
    clock = speed.LaunchClock(bare_start)
    while len(clock.raw) < MIN_LAUNCHES or sum(clock.raw) < budget_s:
        start = time.perf_counter()
        proc = launch(argv)
        clock.add(parse(proc, time.perf_counter() - start))
    return clock


def import_seconds(module: str) -> speed.LaunchClock:
    """Times of `import module` in fresh interpreters, interpreter start
    excluded.  One discarded launch first writes bytecode caches."""
    probe = ["-c", IMPORT_PROBE.format(module)]
    launch(probe)

    def parse(proc, wall_s: float) -> float:
        if proc.returncode != 0:
            raise RuntimeError(f"import {module} failed: {proc.stderr}")
        return float(proc.stdout)

    return launches(probe, SETUP_BUDGET_S, parse)


def cli_output_ok(hs, workload: str, stdout: str) -> bool:
    try:
        records = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if workload == "large_n":
        a, b, c, n = LARGE_N_CLI_CASE
        rep = hs.engine.eval_auto(hs.params.ParamSet(a, b, c), n)
        return complex(records["value_re"], records["value_im"]) == rep.value
    if workload == "small_n":
        ref = hs.oracle.landau_ref(1).as_complex().real
        return all(abs(r["value_re"] - ref) <= checks.LANDAU_BAR * ref
                   for r in records if r["method"] in ("direct", "watson", "ck"))
    return True  # table1 checks its own grid and exits 3 on drift


def cli_cold(hs, workload: str) -> tuple[speed.LaunchClock, bool]:
    """Wall times of fresh `python -m hypersum` runs of the workload's
    command, and whether every launch exited 0 with a correct answer."""
    ok = True

    def parse(proc, wall_s: float) -> float:
        nonlocal ok
        ok = ok and proc.returncode == 0 and cli_output_ok(hs, workload, proc.stdout)
        return wall_s

    clock = launches(["-m", "hypersum", *CLI_COMMANDS[workload]],
                     CLI_BUDGET_S, parse)
    return clock, ok


class Run:
    """One benchmark run: cases, outcomes, checks and metrics."""

    def __init__(self, hs, workload: str, seed: int, seconds: int) -> None:
        self.hs, self.workload, self.seed, self.seconds = hs, workload, seed, seconds
        self.cases = workloads.build(workload, seed)
        self.outcomes: list = [None] * len(self.cases)
        self.loops: list[Passes] = []
        self.verdict = checks.Verdict()
        self.metrics: dict[str, float] = {}
        self.info: dict[str, object] = {"cli_command": CLI_COMMANDS[workload]}
        self.correct = True

    def loop(self, seconds: float, topup: bool = True) -> Passes:
        passes = Passes(self.hs, self.cases, seconds, self.outcomes, topup)
        self.loops.append(passes)
        self.correct &= passes.mismatches == 0
        return passes

    def check(self) -> tuple[float, float]:
        """Apply the failure rule to every case; (scaled, raw) seconds."""
        self.verdict = verdict = checks.Verdict()
        clock = speed.ScaledClock()
        for case, out in zip(self.cases, self.outcomes):
            start = time.perf_counter()
            verdict.add(case, out, self.hs)
            clock.add(time.perf_counter() - start)
        clock.flush()
        self.correct &= not any(verdict.wrong)
        return sum(clock.scaled()), sum(clock.raw)

    def timed_checks(self) -> tuple[float, float]:
        """Median (scaled, raw) time of the check, repeated until
        ORACLE_BUDGET_S is spent, for checks too short to time once."""
        times = [self.check()]
        while sum(raw for _, raw in times) < ORACLE_BUDGET_S:
            times.append(self.check())
        self.info["oracle_repeats"] = len(times)
        return (statistics.median(t for t, _ in times),
                statistics.median(r for _, r in times))

    @property
    def attempted(self) -> int:
        return sum(p.calls for p in self.loops)

    def _calls_of(self, flags: list[bool]) -> int:
        per_case = [0] * len(self.cases)
        for passes in self.loops:
            for i in passes.owner:
                per_case[i] += 1
        return sum(n for n, flag in zip(per_case, flags) if flag)

    @property
    def failed(self) -> int:
        """Calls that gave no usable answer: raised, returned non-finite, or
        missed the oracle by more than checks.WRONG_REL.  Any of these also
        makes the run incorrect."""
        return self._calls_of(self.verdict.wrong)

    @property
    def uncovered(self) -> int:
        """Calls that break the failure rule (checks.py): the failed ones,
        and those whose error exceeds the error they claim."""
        return self._calls_of(self.verdict.failed)

    @property
    def pass_ratio(self) -> float:
        """Cases that pass the failure rule over all cases.  Cases, not
        calls: how often a case repeats depends on its timing."""
        return 1.0 - sum(self.verdict.failed) / len(self.cases)

    def launches(self) -> tuple[speed.LaunchClock, speed.LaunchClock]:
        """Fresh-process times: setup and CLI."""
        setup = import_seconds("hypersum")
        cli, ok = cli_cold(self.hs, self.workload)
        self.correct &= ok
        return setup, cli

    def end_to_end(self) -> None:
        # Half the fresh-process launches run before the loop and half after
        # the check, so their medians span the run's stretches of CPU speed.
        early = self.launches()
        passes = self.loop(self.seconds)
        oracle_s, oracle_raw_s = self.timed_checks()
        late = self.launches()
        setup, cli = ([*e.scaled(), *l.scaled()] for e, l in zip(early, late))
        setup_raw, cli_raw = ([*e.raw, *l.raw] for e, l in zip(early, late))
        latencies = passes.case_latencies_us(passes.scaled)
        level, tail_us = tail(latencies)
        raw_latencies = passes.case_latencies_us(passes.raw)
        self.metrics = {
            "calls_per_s": passes.calls_per_s(passes.scaled),
            "latency_p50_us": statistics.median(latencies),
            "latency_tail_us": tail_us,
            "pass_ratio": self.pass_ratio,
            "oracle_check_s": oracle_s,
            "setup_s": statistics.median(setup),
            "cli_cold_s": statistics.median(cli),
        }
        self.info.update(
            latency_samples=len(latencies), tail_level=level,
            passes=passes.passes, calls=passes.calls, setup_launches=len(setup),
            cli_launches=len(cli),
            kernel_ms_median=1e3 * statistics.median(passes.kernel_s),
            bare_start_ms_median=1e3 * statistics.median(
                b for clock in (*early, *late) for b in clock.bare_s),
            unscaled={"calls_per_s": passes.calls_per_s(passes.raw),
                      "latency_p50_us": statistics.median(raw_latencies),
                      "latency_tail_us": tail(raw_latencies)[1],
                      "oracle_check_s": oracle_raw_s,
                      "setup_s": statistics.median(setup_raw),
                      "cli_cold_s": statistics.median(cli_raw)})

    def per_layer(self) -> None:
        """Untraced half, curve probes, traced half, then a traced oracle
        check and in-process CLI run.  Span times are scaled by the speed
        measured around the traced calls, like the end-to-end times."""
        hs = self.hs
        # No top-ups: one call per case and pass, so that per-call span
        # metrics weigh every case alike.
        plain = self.loop(self.seconds / 2, topup=False)
        curve = self.curve()
        with tracer.Tracer() as loop_trace:
            traced = self.loop(self.seconds / 2, topup=False)
        with tracer.Tracer() as oracle_trace:
            oracle_scaled_s, oracle_raw_s = self.check()
        cli_clock = speed.ScaledClock()
        with tracer.Tracer() as cli_trace:
            start = time.perf_counter()
            self.correct &= hs.cli.run(CLI_COMMANDS[self.workload], io.StringIO()) == 0
            cli_clock.add(time.perf_counter() - start)
        cli_clock.flush()
        cli_scale = sum(cli_clock.scaled()) / sum(cli_clock.raw)
        self.correct &= not tracer.leftovers()
        spans = loop_trace.summary()
        self.correct &= sum(loop_trace.self_times()) == spans.root_ns
        calls = spans.roots
        scale = traced.scale

        def per_call(ns: int) -> float:
            return ns * scale / 1e3 / calls

        runs = spans.notes_of("series.run")
        terms = sum(t for t, _ in runs)
        oracle = oracle_trace.summary()
        oracle_terms = sum(oracle.notes_of("oracle.partial_sum_ref"))
        self.metrics = {
            "complexfn.gamma_ratio.calls_per_call":
                spans.count["complexfn.gamma_ratio"] / calls,
            "complexfn.gamma_ratio.self_us":
                per_call(spans.self_ns["complexfn.gamma_ratio"]),
            "complexfn.digamma.self_us":
                per_call(spans.self_ns["complexfn.digamma"]),
            "complexfn.self_share":
                spans.layer_self_ns("complexfn") / spans.root_ns,
            "params.classify.calls_per_call": spans.count["params.classify"] / calls,
            "params.classify.self_us": per_call(spans.self_ns["params.classify"]),
            "params.seq_factors.self_us":
                per_call(spans.self_ns["params.seq_factors"]),
            "series.terms_per_call": terms / calls,
            "series.us_per_term":
                per_call(spans.layer_self_ns("series")) * calls / terms
                if terms else 0.0,
            "series.capped_share":
                sum(capped for _, capped in runs) / len(runs) if runs else 0.0,
            "engine.self_us": per_call(spans.layer_self_ns("engine")),
            "engine.worst_err_over_est": self.verdict.worst_ratio,
            **curve,
            **{f"landau.{r.removeprefix('landau_')}.self_us":
               per_call(spans.self_ns[f"landau.{r}"]) for r in LANDAU_ROUTE_NAMES},
            "landau.fallback_share": spans.share_with_child(
                ("landau.landau_watson", "landau.landau_ck"), "landau.landau_direct"),
            **{f"coeffs.{f}.self_us": per_call(spans.self_ns[f"coeffs.{f}"])
               for f in COEFF_FUNCS},
            "oracle.partial_sum_ref.us_per_term":
                oracle.total_ns["oracle.partial_sum_ref"]
                * (oracle_scaled_s / oracle_raw_s) / 1e3 / oracle_terms
                if oracle_terms else 0.0,
            "oracle.calls": oracle.count["oracle.partial_sum_ref"]
                + oracle.count["oracle.landau_ref"],
            "cli.run.self_us":
                cli_trace.summary().self_ns["cli.run"] * cli_scale / 1e3,
            "setup.mpmath_import_s":
                statistics.median(import_seconds("mpmath").scaled()),
            "trace.overhead_ratio": (plain.calls_per_s(plain.scaled)
                                     / traced.calls_per_s(traced.scaled)),
        }
        self.info.update(traced_calls=calls, spans=len(loop_trace),
                         untraced_passes=plain.passes, traced_passes=traced.passes)

    def curve(self) -> dict[str, float]:
        """Median latency and term count per curve point, untraced."""
        probes = workloads.curve_probes(self.workload, self.seed)
        verdict = checks.Verdict()
        clock = speed.ScaledClock(interval_s=0.0)
        terms = []
        for case in probes:
            ns, out = timed_call(self.hs, case)
            clock.add(ns / 1e9)
            verdict.add(case, out, self.hs)
            terms.append(out.terms or 0)
        clock.flush()
        self.correct &= not any(verdict.wrong)
        self.info["curve_probes_failed"] = sum(verdict.failed)
        points = defaultdict(list)
        for case, seconds, count in zip(probes, clock.scaled(), terms):
            points[case.branch, case.n].append((seconds * 1e6, count))
        curve = {}
        for branch in workloads.CURVE_BRANCHES:
            for n in workloads.ALL_CURVE_N:
                got = points.get((branch, n), [(0.0, 0)])
                curve[f"engine.curve.{branch}.n{n}.us"] = statistics.median(
                    us for us, _ in got)
                curve[f"engine.curve.{branch}.n{n}.terms"] = statistics.median(
                    t for _, t in got)
        return curve


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(hs, run: Run, trace: int) -> dict:
    import mpmath
    tol = hs.engine.Tolerance()
    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": trace, "commit": commit(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(), "threads": 1, "loop": "closed",
        "tolerance": {"rel_tol": tol.rel_tol, "max_terms": tol.max_terms},
        "oracle_cap_n": checks.ORACLE_CAP, "cases": len(run.cases),
        **run.info,
    }


def report(hs, run: Run, trace: int) -> None:
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    verdict = run.verdict
    print(f"# hypersum benchmark: workload {run.workload}, seed {run.seed}, "
          f"{'per-layer (traced)' if trace else 'end-to-end'}")
    print("meta " + json.dumps(metadata(hs, run, trace)))
    for name, unit in units.items():
        print(f"{name:44s} {run.metrics[name]:16.6g} {unit}")
    print(f"{'fail_ratio':44s} {1.0 - run.pass_ratio:16.6g} ratio "
          f"({sum(verdict.failed)} of {len(run.cases)} cases, {run.uncovered} of "
          f"{run.attempted} calls break the failure rule, {run.failed} calls "
          f"with a wrong answer)")
    print(f"oracle-checked cases: {verdict.checked} of {len(run.cases)}, "
          f"failing cases: {sum(verdict.failed)}")
    print(f"worst |err|/est_error: {verdict.worst_ratio:.4g} at {verdict.worst_ratio_at}")
    print(f"worst relative error: {verdict.worst_rel:.4g} at {verdict.worst_rel_at}")
    for problem in verdict.problems[:10]:
        print(f"problem: {problem}")
    result = {
        "correct": bool(run.correct),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    hs = load_package()
    run = Run(hs, args.workload, args.seed, args.seconds)
    if args.trace:
        run.per_layer()
    else:
        run.end_to_end()
    report(hs, run, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
