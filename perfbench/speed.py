"""Timings at a reference machine speed.

The machine the benchmark was set up on (2 shared vCPUs) changes speed by up
to 60% between stretches of a minute or more, and by up to 35% within a few
seconds: a steady ``kp-check --series W`` took 1.09 s in one 20-second
stretch and 1.74 s in another, and a pure-Python loop slowed by the same
factor.  No median inside one run removes that.  So the driver times a fixed
pure-Python loop right before and right after each timed operation, and
reports the operation's wall time times REF_SECONDS over the mean of the two
loop times.  Over eight 20-second stretches this cut the spread of the W
verdict from 0.45 to 0.05.  A change that makes graphkp faster or slower
moves the scaled figure by the same share as the raw one.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

#: Time of one reference loop at the reference speed: roughly its median on
#: the machine the benchmark was set up on, in a quiet stretch.  It only
#: fixes the scale of the reported seconds.
REF_SECONDS = 0.0045

#: Loops per calibration; the median is kept.
REPEATS = 5


def reference_loop() -> None:
    """Dict updates, integer and Fraction arithmetic, like graphkp's own
    inner loops."""
    acc: dict[int, int] = {}
    total = Fraction(0)
    for i in range(20000):
        key = (i * 7919) % 1021
        acc[key] = acc.get(key, 0) + (i >> 3 | 1)
        if i % 50 == 0:
            total += Fraction(i, 7)


def calibrate() -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Scales consecutive timings by the calibrations taken around each."""

    def __init__(self):
        self.last = calibrate()
        self.loops = [self.last]

    def scale(self, wall: float) -> float:
        now = calibrate()
        self.loops.append(now)
        scaled = wall * REF_SECONDS / ((self.last + now) / 2)
        self.last = now
        return scaled
