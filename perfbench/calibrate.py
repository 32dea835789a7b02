"""A fixed pure-Python kernel that gauges how fast the interpreter runs now.

The machines this runs on are shared, and their speed drifts by up to half
for minutes at a time, so timings are reported at a reference speed.  While
ops run, a timer signal runs the kernel every ``PERIOD_S``; an op that took
``t`` seconds is reported as ``t`` times the mean, over the kernel runs
during it, of ``REFERENCE_S / kernel seconds``.  The kernel does what the
program does most (modular membership tests on integer points, a graded
sort, set lookups of point differences) but imports nothing from it, so a
change to the program never moves the yardstick.

Run as a script, it prints the set-up time of a fresh interpreter (import
``propmod.cli`` and build its parser) with the speed measured around it.
"""

from __future__ import annotations

import json
import signal
from statistics import fmean
from time import perf_counter

# Kernel seconds at the reference speed: the median on an idle 2-vCPU
# Intel Xeon virtual machine with CPython 3.11.
REFERENCE_S = 0.00024
PERIOD_S = 0.05
SETUP_SAMPLES = 20


def kernel() -> int:
    members = set()
    for x in range(16):
        for y in range(12):
            if (7 * x - 3 * y) % 23 <= x + 2 * y:
                members.add((x, y))
    found = 0
    for h in sorted(members, key=lambda p: (p[0] + p[1], p)):
        for s in members:
            if h[0] >= s[0] and h[1] >= s[1] and (h[0] - s[0], h[1] - s[1]) in members:
                found += 1
                break
    return found


def speed_sample() -> tuple[float, float]:
    """(time, speed) of one kernel run; speed 1 is the reference.

    The kernel runs once untimed first, so that the timed run finds its
    code and data in the cache whatever the program did before: the
    gauge follows the processor's speed, not the program's memory use.
    """
    kernel()
    start = perf_counter()
    kernel()
    end = perf_counter()
    return start, REFERENCE_S / (end - start)


class Gauge:
    """Kernel runs every PERIOD_S on a timer signal, while started."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(speed_sample())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the kernel runs within one period of [start, end]."""
        near = [s for t, s in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return fmean(near)


def setup_probe() -> dict:
    before = [speed_sample()[1] for _ in range(SETUP_SAMPLES)]
    start = perf_counter()
    from propmod import cli
    cli.build_parser()
    seconds = perf_counter() - start
    after = [speed_sample()[1] for _ in range(SETUP_SAMPLES)]
    return {"seconds": seconds, "speed": fmean(before + after)}


if __name__ == "__main__":
    print(json.dumps(setup_probe()))
