"""Host-speed calibration: scale measured times to a host running at full speed.

On a shared host the CPU speed a process gets drifts by 40% and more over
seconds to minutes, as other tenants come and go.  That drift is common to all
code, so a fixed reference kernel timed between the ops tracks it: an op's
time is multiplied by REFERENCE_S / (the kernel's time around that op).  The
kernel does not touch the package, so a change to the package moves the
scaled times exactly as it moves the raw ones.

REFERENCE_S is the kernel's time on the reference machine (2 vCPU Xeon,
Python 3.11.7) when no other tenant competes, so scaled times read as that
machine's unloaded times.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Iterable, List, Tuple

REFERENCE_S = 1.0e-3
# A kernel sample is taken before an op whenever this long has passed since
# the last one; long ops get one on each side.
INTERVAL_S = 0.025
# Samples this close to an op (before its start or after its end) rate it.
WINDOW_S = 0.1


def kernel() -> int:
    """Interpreter arithmetic plus small-list allocation: about 1 ms."""
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    for _ in range(10):
        xs = [i * 3 for i in range(1_000)]
        acc += sum(xs[::3])
    return acc


class Calibrator:
    """Kernel samples (time taken, duration) over a run."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.times.append(t1)
            self.durations.append(t1 - t0)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        # Always include the nearest sample on each side of the op.
        lo = min(lo, max(bisect.bisect_right(self.times, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_left(self.times, end) + 1, len(self.times)))
        return REFERENCE_S / statistics.median(self.durations[lo:hi])

    def scales(self, spans: Iterable[Tuple[float, float]]) -> List[float]:
        return [self.scale(start, end) for start, end in spans]

    def overall(self) -> float:
        return REFERENCE_S / statistics.median(self.durations)
