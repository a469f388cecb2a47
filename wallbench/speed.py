"""Host-speed probe: wall times scaled to a host at reference speed.

The benchmark runs on a few cores of a shared host whose speed for
pure-Python work changes by up to about 2x, for a second or more at a
time. How much of a run falls in slow periods changes from run to run, and
it spread the medians of runs of the same code far beyond their bounds.
So a fixed pure-Python task from this file, text splitting and tuple and
set building much like SQL tokenizing, is timed between operations every
``PROBE_INTERVAL_S``. Each operation's wall time is multiplied by
``REFERENCE_MS`` over the mean of the probe samples either side of it, so
it reads as on a host where the probe takes ``REFERENCE_MS``. Measured
over 1-s windows of one run, engine time moved with this probe at a
log-log slope of 0.8 (``adhoc``) to 1.1 (``dashboard_rw``), and scaling
cut the spread of window means from 0.13 to 0.08 and 0.24 to 0.07 (as a
share of their mean). The probe runs only benchmark code, with the
collector off, so a change to the program under test leaves it alone and
shows in full. Raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: probe milliseconds on this benchmark's 2-vCPU x86-64 host when nothing
#: slows it; scaled times read as on a host this fast
REFERENCE_MS = 1.0
#: wall seconds between probe samples; slow periods last a second or more
PROBE_INTERVAL_S = 0.1
#: repetitions of the task per sample; the sample is their median
PROBE_REPEATS = 3

_TEXT = (
    "SELECT c.name, SUM(o.amount) FROM customers c JOIN orders o "
    "ON c.id = o.cust WHERE o.amount > %d GROUP BY c.name"
)


def _task() -> int:
    tokens = set()
    for i in range(300):
        text = _TEXT % i
        tokens.add(tuple(word.lower() for word in text.replace(",", " , ").split()))
    return len(tokens)


class SpeedProbe:
    """Samples host speed between operations and scales wall times by it."""

    def __init__(self) -> None:
        self.stamps: list = []
        self.probe_ms: list = []

    def sample(self) -> None:
        """Time the task now; call only between operations."""
        times = []
        gc.disable()
        try:
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                _task()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.probe_ms.append(statistics.median(times) * 1000.0)
        self.stamps.append(time.perf_counter())

    def tick(self) -> None:
        """Sample if `PROBE_INTERVAL_S` has passed since the last sample."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= PROBE_INTERVAL_S:
            self.sample()

    def factor_at(self, stamp: float) -> float:
        """`REFERENCE_MS` over the mean of the samples either side of `stamp`."""
        after = bisect.bisect_right(self.stamps, stamp)
        around = self.probe_ms[max(after - 1, 0):after + 1]
        return REFERENCE_MS / (sum(around) / len(around))

    def scale(self, stamps, values) -> list:
        """Each of `values`, taken at the matching stamp, at reference speed."""
        return [value * self.factor_at(stamp) for stamp, value in zip(stamps, values)]
