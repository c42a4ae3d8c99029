"""Machine-speed calibration.

The machines this benchmark runs on switch between speeds about 1.8x
apart, for seconds to tens of seconds at a time, which moves every wall
time of a run together.  Timings are therefore scaled to seconds at a
reference speed: measured seconds x REFERENCE_S / the time a fixed
pure-Python kernel takes at that moment.  The kernel uses no kecss code,
so changes to the package cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0018  # kernel time on an idle 2-core x86-64 host, Python 3.11
INTERVAL_S = 0.05     # speed samples taken while an operation runs


def reference_work():
    """Exact elimination on a fixed 6x6 rational matrix and a 2^9-mask
    cut scan: the two kinds of work the solvers do most."""
    n = 6
    a = [[Fraction((3 * i + 5 * j) % 11 + (5 if i == j else 0), 1 + (i * j) % 5)
          for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    edges = [((7 * i) % 10, (5 * i + 3) % 10, i % 4 + 1) for i in range(30)]
    best = None
    for mask in range(2, 1 << 10, 2):
        w = sum(c for u, v, c in edges if (mask >> u & 1) != (mask >> v & 1))
        best = w if best is None else min(best, w)
    return a[-1][-1], best


def kernel_seconds() -> float:
    """Time of one kernel run, now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class SpeedClock:
    """A wall clock that leaves out its own speed samples.

    `sample` runs the kernel and records its time.  Between `start` and
    `stop` an interval timer also samples every INTERVAL_S seconds from a
    SIGALRM handler, so the speed of a long operation is measured while
    it runs; the handler's time is excluded from `now`.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self._paused += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scale_since(self, first: int) -> float:
        """Reference speed over the median speed of samples[first:]."""
        return REFERENCE_S / statistics.median(self.samples[first:])
