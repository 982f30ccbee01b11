"""Scaling of measured times to a reference machine speed.

On a virtual machine whose host is shared (measured on 2 vCPUs of an Intel
Xeon host) the same code runs up to a third faster or slower from one second
to the next, and a sum of wall times over a run moves by 15-30 % between
runs of identical code.  So, while the benchmark measures, a CPU-time timer signal
runs a fixed calibration loop every ``INTERVAL_S`` of CPU time, and the
benchmark runs it once more just before each instance.  An interval of wall
time, without the probes inside it, is then scaled by ``REFERENCE_S`` over
the median time of those probes and of the last one before it: the result
is the time the interval would take at the speed at which the calibration
loop takes ``REFERENCE_S``.  The speed changes within a second, so the
probes nearest in time track it best.

The probes that the timer signal starts run inside the program's
operations and share its caches, so a change to the program's working set
can move them too and partly cancel in a scaled time.  The garbage
collector is off during a probe, so that the program's heap does not add a
collection to it.  ``run.py`` also prints the unscaled sums, so that the
two can be compared.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

REFERENCE_S = 0.003  # the calibration loop's time at the reference speed
INTERVAL_S = 0.1  # CPU time between two probes

# The loop looks up shuffled tuple keys in a dict of a few megabytes, as the
# program does with its carriers; a loop that stays in the first-level caches
# follows the program's speed less closely.
_rng = random.Random(0)
_TABLE = {tuple(_rng.randrange(9) for _ in range(5)) + (i,): i for i in range(20_000)}
_KEYS = list(_TABLE)
_rng.shuffle(_KEYS)


def calibration_loop() -> int:
    total = 0
    for key in _KEYS[:2000]:
        total += _TABLE[key] + len(tuple(key[i] for i in (4, 3, 2, 1, 0)))
    return total


class Speedometer:
    """Probes of the calibration loop while the context is entered."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.probe()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.probe()
        return False

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds spent in probes between t0 and t1."""
        lo, hi = bisect.bisect_right(self.ends, t0), bisect.bisect_right(self.ends, t1)
        return sum(self.durations[lo:hi])

    def wall(self, t0: float, t1: float) -> float:
        """The wall time from t0 to t1 without its probes."""
        return max(t1 - t0 - self.probe_time(t0, t1), 0.0)

    def scale(self, t0: float, t1: float) -> float:
        """The wall time from t0 to t1 without its probes, in seconds at the
        reference speed."""
        lo, hi = bisect.bisect_right(self.ends, t0), bisect.bisect_right(self.ends, t1)
        return self.wall(t0, t1) * REFERENCE_S / statistics.median(self.durations[max(lo - 1, 0):hi])
