"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

hs = run.load_package()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    assert workloads.build(workload, 7) != workloads.build(workload, 8)
    assert (workloads.curve_probes(workload, 7)
            == workloads.curve_probes(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cases_classify_into_their_branch(workload):
    cases = workloads.build(workload, 3) + workloads.curve_probes(workload, 3)
    evals = [c for c in cases if c.func == "eval_auto"]
    assert evals
    for case in evals:
        assert hs.params.classify(*case.args).kind == case.branch, case


def test_large_n_shape():
    cases = workloads.build("large_n", 5)
    assert len(cases) == workloads.LARGE_CASES
    assert {c.branch for c in cases} == set(workloads.BRANCHES)
    assert all(10**3 <= c.n <= 10**6 for c in cases)
    band = [c for c in cases if "near_integer_excess"
            in hs.params.classify(*c.args).warnings]
    assert len(band) == workloads.LARGE_CASES // 10
    assert any(c.branch == workloads.GENERIC
               and (c.args[2] - c.args[0] - c.args[1]).real < 0 for c in cases)


def test_small_n_routes_stay_in_their_windows():
    cases = workloads.build("small_n", 5)
    for route, lowest, _ in workloads.LANDAU_ROUTES:
        indices = sorted(c.n for c in cases if c.func == route)
        assert indices == [i for i in workloads.LANDAU_INDICES if i >= lowest]
    for case in cases:
        if case.func != "eval_auto":
            run.call(hs, case)  # raises if outside the route's window


def _originals():
    return {(m, f): getattr(sys.modules[f"hypersum.{m}"], f)
            for m, f in tracer.TARGETS}


def test_tracer_restores_and_self_times_add_up():
    before = _originals()
    case = workloads.Case("eval_auto", 50, (0.3 + 0.2j, 1.7, 0.9),
                          workloads.GENERIC)
    with tracer.Tracer() as tr:
        assert hs.engine.eval_auto is not before["engine", "eval_auto"]
        assert hs.engine.classify is hs.params.classify
        run.call(hs, case)
        run.call(hs, workloads.Case("landau_ck", 3, (3,)))
    assert _originals() == before
    assert hs.engine.classify is before["params", "classify"]
    assert hs.engine.gamma_ratio is before["complexfn", "gamma_ratio"]
    assert tracer.leftovers() == []
    spans = tr.summary()
    assert spans.roots == 2
    assert spans.count["params.classify"] == 2
    own, dur = tr.self_times(), tr.durations()
    assert all(0 <= o <= d for o, d in zip(own, dur))
    assert sum(own) == spans.root_ns
    assert spans.notes_of("series.run")


def test_failure_rule_flags_a_perturbed_result():
    case = workloads.Case("eval_auto", 40, (0.3 + 0.2j, 1.7, 0.9),
                          workloads.GENERIC)
    _, good = run.timed_call(hs, case)
    bad = checks.Outcome(good.value + 2 * good.est_error, good.est_error,
                         good.terms)
    verdict = checks.Verdict()
    for out in (good, bad):
        verdict.add(case, out, hs)
    assert verdict.failed == [False, True]
    assert verdict.wrong == [False, False]
    assert verdict.worst_ratio > 1.5


def test_failure_rule_on_landau_routes_and_raises():
    verdict = checks.Verdict()
    g5 = hs.landau.landau_direct(5)
    verdict.add(workloads.Case("landau_direct", 5, (5,)), checks.Outcome(g5), hs)
    verdict.add(workloads.Case("landau_watson", 5, (5,)),
                checks.Outcome(g5 * (1 + 1e-9)), hs)
    verdict.add(workloads.Case("landau_theorem3", 12, (13, 10)),
                checks.Outcome(g5, 1e-3), hs)
    verdict.add(workloads.Case("landau_nemes", 5, (5, 1.0, 3)),
                checks.Outcome(complex("nan")), hs)
    verdict.add(workloads.Case("landau_ck", 5, (5,)),
                checks.Outcome(error="DomainError: boom"), hs)
    assert verdict.failed == [False, True, True, True, True]
    assert verdict.wrong == [False, False, True, True, True]


def test_result_failed_counts_wrong_answers_only():
    result = run.Run(hs, "verify_draw", 1, 1)
    result.cases = result.cases[:3]
    result.verdict.failed = [True, True, False]
    result.verdict.wrong = [False, True, False]
    owners = ([0, 1, 1, 1, 2], [0, 0, 1, 2])
    result.loops = [SimpleNamespace(owner=o, calls=len(o)) for o in owners]
    assert (result.attempted, result.failed, result.uncovered) == (9, 4, 7)
    assert result.pass_ratio == pytest.approx(1 / 3)


def test_topups_add_calls_but_no_pass():
    cases = workloads.build("large_n", 2)[:3]
    outcomes = [None] * 3
    passes = run.Passes(hs, cases, 0.0, outcomes)
    assert passes.passes == 1
    assert sorted(passes.owner) == [0, 0, 1, 1, 2, 2]
    assert passes.calls_per_s(passes.raw) > 0
    assert len(passes.case_latencies_us(passes.raw)) == 3
    assert passes.mismatches == 0 and None not in outcomes
    plain = run.Passes(hs, cases, 0.0, [None] * 3, topup=False)
    assert plain.owner == [0, 1, 2]


def test_small_n_jitter_keeps_the_design():
    one, two = workloads.build("small_n", 1), workloads.build("small_n", 2)
    assert one != two
    # each eval case of one seed lies near a case of the same cell in the
    # other: a and b move by up to twice the jitter, c (a + b + m) by four
    cells = {}
    for case in one:
        cells.setdefault((case.func, case.branch, case.n), []).append(case.args)
    for case in two:
        nearest = min(max(abs(x - y) for x, y in zip(case.args, args))
                      for args in cells[case.func, case.branch, case.n])
        assert nearest <= 4 * workloads.SMALL_JITTER


def test_launch_clock_scales_by_the_bare_starts_around_each_launch():
    clock = speed.LaunchClock(iter([0.04, 0.08, 0.02]).__next__)
    clock.add(1.0)
    clock.add(2.0)
    nominal = speed.BARE_NOMINAL_S
    assert clock.scaled() == pytest.approx(
        [1.0 * nominal / 0.06, 2.0 * nominal / 0.05])


def test_tail_has_ten_samples_beyond_it():
    level, value = run.tail(range(1, 1001))
    assert (level, value) == (99.0, 990)
    level, value = run.tail(range(1, 101))
    assert (level, value) == (90.0, 90)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[section]} == units
