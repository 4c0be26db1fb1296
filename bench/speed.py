"""Reference unit for normalizing times on a host whose speed drifts.

On a shared 2-core machine the same work can take twice as long from one
minute to the next, in CPU time as well as in wall time, because other
tenants load the sibling hardware threads; within a 20 s run the slowdown
averages out only partly. The benchmark therefore times a fixed reference
unit (interpreter work plus small dense linear algebra) between items, about
twice a second, and divides each item's time by the slowdown it predicts
from the median of the LOCAL_SAMPLES samples nearest the item in time:

    1 + sensitivity * (median unit duration / REFERENCE_S - 1)

REFERENCE_S is the unit's duration on an idle host, and a workload's
sensitivity is the slope of its cycle time against the unit's duration,
fitted on the reference host (bench/NOTES.md): interpreter-bound work slows
almost as much as the unit does, bulk numpy much less. A normalized second
is a second on that host when idle. Raw figures are reported beside them.
"""
from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.010
LOCAL_SAMPLES = 5

_MATRIX = np.array([[2.0, 0.5, 0.1], [0.5, 1.5, 0.2], [0.1, 0.2, 1.0]])


def unit_s() -> float:
    """Run the reference unit once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        for j in range(20):
            acc += (i * j) % 7 * 0.5
        w, _ = np.linalg.eigh(_MATRIX)
        acc += float(w[0] + (_MATRIX @ _MATRIX)[0, 0])
    return time.perf_counter() - start


class SpeedLog:
    """Reference-unit samples taken between items, at most one per interval."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.units: list[float] = []
        self.times: list[float] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        """Time one reference unit if the interval has passed (or if forced)."""
        if force or time.perf_counter() - self._last >= self.interval_s:
            self.units.append(unit_s())
            self._last = time.perf_counter()
            self.times.append(self._last)

    def scale(self, sensitivity: float, at: float | None = None) -> float:
        """Factor that turns seconds into normalized seconds: from all samples,
        or from the LOCAL_SAMPLES samples nearest to time `at`."""
        units = self.units
        if at is not None:
            first = bisect.bisect_left(self.times, at) - LOCAL_SAMPLES // 2
            first = max(0, min(first, len(units) - LOCAL_SAMPLES))
            units = units[first : first + LOCAL_SAMPLES]
        ratio = statistics.median(units) / REFERENCE_S
        return 1.0 / (1.0 + sensitivity * (ratio - 1.0))
