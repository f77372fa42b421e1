"""Seeded inputs of the three benchmark workloads.

Everything here is plain Python on complex numbers: the package under test
only ever sees the finished cases.  Shares that decide cost or correctness
(branch mix, the near-integer band, the spread of n) are stratified rather
than drawn independently, so two seeds give workloads of the same shape and
differ only in the parameter values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GENERIC = "generic"
LOGARITHMIC = "logarithmic"
POSITIVE_INTEGER = "positive_integer"
NEGATIVE_INTEGER = "negative_integer"
DEGENERATE = "degenerate_negative_integer"
BRANCHES = (GENERIC, LOGARITHMIC, POSITIVE_INTEGER, NEGATIVE_INTEGER,
            DEGENERATE)

# Every parameter, and c-a, c-b, keeps this distance from 0, -1, -2, ...
POLE_GAP = 0.1
# Parameters are drawn in |z| <= RADIUS; each is complex with this chance.
RADIUS = 5.0
COMPLEX_SHARE = 0.3
# Generic draws keep |s - round(s)| >= BAND_TOP, except the band draws of
# large_n, which sit at 1e-9 <= |s - m| < 1e-4 on purpose: classify() still
# calls them generic but flags them, and the engine loses digits there.
BAND_LOW, BAND_TOP = 1e-9, 1e-4

VERIFY_TRIPLES = 1500
VERIFY_N = (5, 20, 100)
LARGE_CASES = 2000
LARGE_N_RANGE = (3, 6)          # log10 of the smallest and largest n
# large_n branch mix, in cases per 20: plain generic, band generic, then one
# share for each integer-excess branch.
LARGE_MIX = ((GENERIC, 6), ("band", 2), (LOGARITHMIC, 3),
             (POSITIVE_INTEGER, 3), (NEGATIVE_INTEGER, 3), (DEGENERATE, 3))
SMALL_N = range(2, 21)
# Draws per (branch, n) cell.  At n = 2, 3 the cost of a draw swings from
# ~0.1 s to the term cap (~2 s) with the parameters, so cells need several.
SMALL_DRAWS_PER_CELL = 6
# small_n's draws come from one design, the same for every seed, and the
# seed moves each real part by up to SMALL_JITTER and sets the order.  With
# fresh draws per seed, the few draws that decide a cell's cost moved the
# workload's p90 latency by 0.2-0.35 (quartile distance over median)
# between seeds.  The design is the stratified draw of this fixed seed.
SMALL_DESIGN_SEED = "small_n-design"
SMALL_JITTER = 0.05
LANDAU_INDICES = range(1, 21)
# Landau routes with the CLI defaults (thm3 M = 10, asym K = 6, nemes h = 1,
# K = 3).  Each entry: route, smallest valid index, index -> arguments.  The
# thm3 and asym routes estimate the constant one below their argument.
LANDAU_ROUTES = (
    ("landau_direct", 0, lambda i: (i,)),
    ("landau_watson", 0, lambda i: (i,)),
    ("landau_ck", 0, lambda i: (i,)),
    ("landau_theorem3", 10, lambda i: (i + 1, 10)),
    ("landau_asymptotic", 0, lambda i: (i + 1, 6)),
    ("landau_watson_asymptotic", 0, lambda i: (i,)),
    ("landau_nemes", 1, lambda i: (i, 1.0, 3)),
)

# Points of the latency-versus-n curve, per workload, for three branches.
CURVE_BRANCHES = (GENERIC, LOGARITHMIC, NEGATIVE_INTEGER)
CURVE_N = {"small_n": (2, 5, 20), "large_n": (100, 10_000, 1_000_000)}
ALL_CURVE_N = (2, 5, 20, 100, 10_000, 1_000_000)
CURVE_DRAWS = 3

WORKLOADS = ("verify_draw", "large_n", "small_n")


@dataclass(frozen=True)
class Case:
    """One call: eval_auto on (a, b, c) at index n, or a Landau route.

    For eval cases args is (a, b, c); for Landau cases it is the route's
    positional arguments and n is the index of the constant it estimates.
    """

    func: str
    n: int
    args: tuple
    branch: str = ""


def pole_distance(z: complex) -> float:
    """Distance from z to the nearest nonpositive integer."""
    k = min(round(z.real), 0)
    return abs(z - k)


def draw_param(rng: random.Random, stratum: tuple[int, int] = (0, 1),
               complex_share: float = COMPLEX_SHARE) -> complex:
    """A parameter in |z| <= RADIUS, off the poles, complex with chance
    complex_share; stratum (i, k) puts its real part in the i-th of k equal
    slices of [-RADIUS, RADIUS]."""
    i, k = stratum
    while True:
        re = RADIUS * (2.0 * (i + rng.random()) / k - 1.0)
        im = rng.uniform(-RADIUS, RADIUS) if rng.random() < complex_share else 0.0
        z = complex(re, im)
        if abs(z) <= RADIUS and pole_distance(z) >= POLE_GAP:
            return z


def draw_triple(rng: random.Random, branch: str,
                strata: tuple = ((0, 1),) * 3,
                complex_shares: tuple = (COMPLEX_SHARE,) * 3) -> tuple:
    """Admissible (a, b, c) whose excess s = c-a-b falls in `branch`.

    branch may also be "band": generic, with s within the near-integer band.
    strata gives the real-part slices of a, b and (drawn freely) c, and
    complex_shares their chances to be complex.
    """
    while True:
        a = draw_param(rng, strata[0], complex_shares[0])
        b = draw_param(rng, strata[1], complex_shares[1])
        m = rng.randint(1, 4)
        if branch == GENERIC:
            c = draw_param(rng, strata[2], complex_shares[2])
        elif branch == "band":
            offset = 10.0 ** rng.uniform(-9.0, -4.0) * rng.choice((-1.0, 1.0))
            c = a + b + rng.randint(-3, 3) + offset
        elif branch == LOGARITHMIC:
            c = a + b
        elif branch == POSITIVE_INTEGER:
            c = a + b + m
        elif branch == NEGATIVE_INTEGER:
            c = a + b - m
        elif branch == DEGENERATE:
            a = complex(rng.randint(1, m))
            c = a + b - m
        else:
            raise ValueError(f"unknown branch {branch!r}")
        if admissible(a, b, c, branch):
            return a, b, c


def admissible(a: complex, b: complex, c: complex, branch: str) -> bool:
    """Whether (a, b, c) keeps off the poles and its excess s fits `branch`
    (for the integer branches s is exact by construction)."""
    # c - b = a - m is a pole by construction on the degenerate line
    near = (a, b, c, c - a) if branch == DEGENERATE else (a, b, c, c - a, c - b)
    if min(pole_distance(z) for z in near) < POLE_GAP:
        return False
    s = c - a - b
    off = abs(s - round(s.real))
    if branch == GENERIC and off < BAND_TOP:
        return False
    return branch != "band" or BAND_LOW <= off < BAND_TOP


def jittered(rng: random.Random, triple: tuple, branch: str) -> tuple:
    """triple with the real parts of its drawn parameters moved by up to
    SMALL_JITTER; for the integer branches c follows a and b, so that s
    stays the same integer."""
    a, b, c = triple
    m = round((c - a - b).real)
    while True:
        ja = a if branch == DEGENERATE else a + rng.uniform(-SMALL_JITTER, SMALL_JITTER)
        jb = b + rng.uniform(-SMALL_JITTER, SMALL_JITTER)
        if branch == GENERIC:
            jc = c + rng.uniform(-SMALL_JITTER, SMALL_JITTER)
        else:
            jc = ja + jb + m
        if admissible(ja, jb, jc, branch):
            return ja, jb, jc


def _eval(triple: tuple, n: int, branch: str) -> Case:
    return Case("eval_auto", n, triple, GENERIC if branch == "band" else branch)


def verify_draw(seed: int) -> list[Case]:
    """Acceptance test 2 traffic: generic triples at n = 5, 20, 100."""
    rng = random.Random(seed)
    cases = []
    for _ in range(VERIFY_TRIPLES):
        triple = draw_triple(rng, GENERIC)
        cases.extend(_eval(triple, n, GENERIC) for n in VERIFY_N)
    rng.shuffle(cases)
    return cases


def large_n(seed: int) -> list[Case]:
    """All branches at n log-uniform over [1e3, 1e6], stratified in n."""
    rng = random.Random(seed)
    per = LARGE_CASES // sum(count for _, count in LARGE_MIX)
    branches = [b for b, count in LARGE_MIX for _ in range(count * per)]
    lo, hi = LARGE_N_RANGE
    ns = [round(10.0 ** (lo + (hi - lo) * (i + rng.random()) / len(branches)))
          for i in range(len(branches))]
    rng.shuffle(ns)
    return [_eval(draw_triple(rng, b), n, b) for b, n in zip(branches, ns)]


def _stratified(rng: random.Random, branch: str, count: int) -> list[tuple]:
    """count triples whose real parts of a, b, c each cover all count
    slices of [-RADIUS, RADIUS] once (a Latin hypercube), and in which each
    of a, b, c is complex in a share of the draws that differs from
    COMPLEX_SHARE by less than 1/count: at small n the cost of a draw swings
    by orders of magnitude with the parameters (at n = 4..8, one complex
    parameter raises the typical term count ~50x), and this keeps the cost
    of a cell from hanging on a few draws."""
    perms = [rng.sample(range(count), count) for _ in range(3)]
    complex_ranks = [rng.sample(range(count), count) for _ in range(3)]
    triples = []
    for j in range(count):
        shares = tuple(float((r[j] + rng.random()) / count < COMPLEX_SHARE)
                       for r in complex_ranks)
        triples.append(draw_triple(rng, branch, tuple((p[j], count) for p in perms),
                                   shares))
    return triples


def small_n(seed: int) -> list[Case]:
    """Every branch at n = 2..20, plus each Landau route at indices 1..20."""
    design = random.Random(SMALL_DESIGN_SEED)
    rng = random.Random(seed)
    cases = [_eval(jittered(rng, triple, b), n, b) for b in BRANCHES for n in SMALL_N
             for triple in _stratified(design, b, SMALL_DRAWS_PER_CELL)]
    for route, lowest, arguments in LANDAU_ROUTES:
        cases.extend(Case(route, i, arguments(i))
                     for i in LANDAU_INDICES if i >= lowest)
    rng.shuffle(cases)
    return cases


def build(workload: str, seed: int) -> list[Case]:
    return {"verify_draw": verify_draw, "large_n": large_n,
            "small_n": small_n}[workload](seed)


def curve_probes(workload: str, seed: int) -> list[Case]:
    """CURVE_DRAWS draws per (branch, n) point of the workload's curve."""
    rng = random.Random(f"curve-{seed}")
    return [_eval(draw_triple(rng, b), n, b)
            for n in CURVE_N.get(workload, ()) for b in CURVE_BRANCHES
            for _ in range(CURVE_DRAWS)]
