"""Timing scaled to a reference CPU speed.

The machine this benchmark was tuned on shares its cores with other guests,
and its CPU speed drifts by up to 1.6x over tens of seconds: a fixed pure
Python loop swings between ~13 and ~21 ms in stretches of seconds.  Raw run
medians then differ by a third between runs.  So every timed piece of work
is bracketed by runs of a fixed calibration kernel, at most INTERVAL_S
apart, and its duration is scaled by NOMINAL_S over the kernel time measured
around it.  A scaled second is a second at the speed where the
kernel takes NOMINAL_S.  The kernel is plain Python complex arithmetic and
function calls, like the package, and shares no code with it, so a change
to the package cannot move the yardstick.  Raw durations are kept as well.
Fresh processes are timed from the parent and scaled differently (see
LaunchClock): their start-up moves with the host's load more than the
kernel shows.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 1e-3
INTERVAL_S = 0.05


def _step(z: complex, k: int) -> complex:
    return z * (k + 0.5j) / (k + 1.0)


def kernel() -> complex:
    z = 0.5 + 0.25j
    acc = 0j
    for k in range(1, 3000):
        z = _step(z, k)
        if abs(z) > 1e6:
            z = 1.0 + 0j
        acc += z / (abs(z) + 1.0)
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class ScaledClock:
    """Collects durations and scales them by the speed measured around them.

    add() takes one measured duration.  Every interval_s of wall time, and
    on flush(), the speed is measured (the fastest of `samples` kernel runs,
    so a run slowed by cold caches does not count), closing a segment of
    durations.  A segment is scaled by NOMINAL_S over the median of the
    speed samples taken from window_s before it to window_s after it: the
    speed drifts over seconds, so the window follows it while one disturbed
    sample cannot.
    """

    def __init__(self, interval_s: float = INTERVAL_S, samples: int = 2,
                 window_s: float = 0.25) -> None:
        self.interval_s, self.samples, self.window_s = interval_s, samples, window_s
        self.raw: list[float] = []
        self.kernel_s: list[float] = []
        self._kernel_at: list[float] = []
        self._segment_ends: list[int] = []
        self._calibrate()
        self._since = time.perf_counter()

    def _calibrate(self) -> None:
        self.kernel_s.append(min(kernel_seconds() for _ in range(self.samples)))
        self._kernel_at.append(time.perf_counter())

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        if time.perf_counter() - self._since >= self.interval_s:
            self.flush()

    def flush(self) -> None:
        start = self._segment_ends[-1] if self._segment_ends else 0
        if len(self.raw) == start:
            return
        self._calibrate()
        self._segment_ends.append(len(self.raw))
        self._since = time.perf_counter()

    def scaled(self) -> list[float]:
        """The flushed durations, scaled to reference speed."""
        out: list[float] = []
        at = self._kernel_at
        lo = hi = 0
        start = 0
        for j, end in enumerate(self._segment_ends):
            # speed samples j and j+1 bracket segment j
            while at[lo] < at[j] - self.window_s:
                lo += 1
            hi = max(hi, j + 2)
            while hi < len(at) and at[hi] <= at[j + 1] + self.window_s:
                hi += 1
            factor = NOMINAL_S / statistics.median(self.kernel_s[lo:hi])
            out.extend(d * factor for d in self.raw[start:end])
            start = end
        return out


# A fresh process is scaled by BARE_NOMINAL_S over the wall time of a bare
# interpreter start (`python -c pass`) measured right before and after it.
# Start-up (fork, exec, page cache, imports) tracks the host's load more
# closely than the kernel does: over blocks of ten launches of the large_n
# CLI command, the spread of the block medians (quartile distance over
# median) was 0.25 raw, 0.08 scaled by the kernel, 0.02 scaled this way.
# The bare start runs nothing of the package, so a change to the package
# cannot move this yardstick either.
BARE_NOMINAL_S = 0.04


class LaunchClock:
    """Durations of fresh processes, each scaled by the bare interpreter
    starts timed by `bare()` right before and after it."""

    def __init__(self, bare) -> None:
        self.bare = bare
        self.raw: list[float] = []
        self.bare_s = [bare()]

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.bare_s.append(self.bare())

    def scaled(self) -> list[float]:
        return [d * 2.0 * BARE_NOMINAL_S / (before + after)
                for d, before, after in zip(self.raw, self.bare_s, self.bare_s[1:])]
