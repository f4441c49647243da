"""Time work in calibration units, so that the host's CPU speed cancels.

On a shared host the CPU this process gets runs in states up to ~1.8x
apart, which switch within a fraction of a second and can last minutes, so
raw seconds of the same work spread by 20-45 % between runs.  This clock
samples the speed while the work runs: a SIGALRM every few milliseconds
runs a fixed calibration loop in the main thread and times it.  The work
between two samples is charged its duration over the time of the
calibration loop that ends it, so a cost reads in "cal": how many
calibration loops the CPU could have run in the work's time.  The loops use
no hedgetest code, so the unit is the same for every commit.

The slow states do not slow all code alike: interpreter-bound code slows
most, large-array numpy code less.  So each workload is costed with a loop
that slows as its own work does: "calls" for tables and contracts, "arrays"
for screen (measured: swapping them leaves two to four times the spread,
and plain arithmetic leaves 1.4 to 1.8 times the pass-to-pass spread of
"calls").  Set-up, which imports numpy, is costed with plain arithmetic,
which imports nothing.

Python runs signal handlers between bytecodes, so a long C call delays the
next sample; each sample is weighted by the time since the one before, so
uneven sampling does not bias the cost.
"""

from __future__ import annotations

import math
import signal
import time


def _arithmetic() -> None:
    acc = 0.0
    for i in range(1, 600):
        acc += math.log(i) * 0.5


def interpreter():
    """Interpreter arithmetic, ~0.1 ms on a 2-CPU Intel Xeon virtual
    machine; sampled every 5 ms.  Imports nothing, so it can time the import
    of the program."""
    return _arithmetic, 0.005


def calls():
    """Interpreter arithmetic, one generator construction and ten numpy
    calls on a 21-element array (the tables and contracts workloads build a
    generator per replication and price 21-atom lattices), ~0.2 ms; sampled
    every 5 ms."""
    import numpy as np
    lattice = np.ones(21)

    def loop() -> None:
        _arithmetic()
        np.random.default_rng([7, 1, 2])
        values = lattice
        for _ in range(10):
            values = np.maximum(values * 1.0001 - 0.5, 0.0) + 0.5
    return loop, 0.005


def arrays():
    """Arithmetic and random draws on 100,000-element numpy arrays (fresh
    temporaries, as the screen workload makes), ~0.8 ms; sampled every 20 ms."""
    import numpy as np
    values = np.random.default_rng(3).random(100_000)
    generator = np.random.default_rng(5)

    def loop() -> None:
        np.sqrt(values * 0.999 + 0.001).sum()
        generator.random(20_000)
    return loop, 0.020


CALIBRATIONS = {"interpreter": interpreter, "calls": calls, "arrays": arrays}


class SpeedClock:
    """Samples calibration-loop times while started; costs intervals in cal."""

    def __init__(self, calibration: str):
        self._loop, self._interval_s = CALIBRATIONS[calibration]()
        self.samples = []             # (start, duration) of each calibration
        self._busy = False
        for _ in range(20):           # warm the loop before any sample counts
            self._loop()
        self._sample(None, None)

    def _sample(self, signum, frame) -> None:
        if self._busy:                # a signal that lands inside a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        self._loop()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self._interval_s, self._interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        """A point to cost from: (time, number of samples so far)."""
        return time.perf_counter(), len(self.samples)

    def cost(self, since: tuple[float, int]) -> tuple[float, float, float]:
        """(cost in cal, wall seconds, seconds of calibration samples) of the
        work since ``since``; the first two leave the samples out."""
        end = time.perf_counter()
        last, first = since
        speed_p = self.samples[first - 1][1]      # the sample before, if none fall inside
        cal = probed = 0.0
        for start, p in self.samples[first:]:
            if start >= end:
                break
            cal += (start - last) / p
            probed += p
            last, speed_p = start + p, p
        cal += max(end - last, 0.0) / speed_p
        return cal, end - since[0] - probed, probed
