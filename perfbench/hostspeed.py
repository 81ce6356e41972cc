"""A host-speed probe, so that timings taken at different moments compare.

On a shared host the CPU speed this benchmark gets changes by up to 1.7x in
stretches of seconds to minutes, and the engine slows down with it.  The
probe is a fixed kernel of the engine's kind of work: a product of two
sparse polynomials held as dicts of packed monomial keys and big integer
coefficients.  It is written here, not taken from the engine, so a change to
the engine cannot change it.  While an operation runs, a SIGALRM handler in
the benchmark's own thread runs the kernel every ``INTERVAL_S``, twice, and
records how long the second run took: the first brings the kernel's data
back into the caches, so the sample does not depend on how much of them the
engine evicted in between.

An operation that took ``t`` seconds while the kernel took ``p`` is reported
as ``t * REFERENCE_S / p``: the time the same work takes on a host where the
kernel takes ``REFERENCE_S``, about its time on the 2-CPU reference host.
``p`` is the median of the kernel times within ``WINDOW_S`` of the
operation.  Time spent in the probe is excluded from every interval measured
with ``Probe.clock``.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

REFERENCE_S = 0.004
INTERVAL_S = 0.2
WINDOW_S = 0.5

_rng = random.Random(0)
_TERMS = 90
_A, _B = (
    {sum(_rng.randrange(8) << (16 * j) for j in range(6)): _rng.randrange(-10**30, 10**30) for _ in range(_TERMS)}
    for _ in range(2)
)


def kernel() -> int:
    """The product of the two fixed polynomials; returns its term count."""
    acc: dict[int, int] = {}
    get = acc.get
    for ka, ca in _A.items():
        for kb, cb in _B.items():
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    return len(acc)


class Probe:
    """Kernel times on the probe's clock, from direct samples and from a timer."""

    def __init__(self):
        self.busy_s = 0.0
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def clock(self) -> float:
        """Seconds that exclude the time spent in the probe."""
        return time.perf_counter() - self.busy_s

    def sample(self) -> None:
        at = self.clock()
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.busy_s += end - start
        self.times.append(at)
        self.durations.append(end - warm)

    def start(self) -> None:
        """Sample now and every INTERVAL_S from now on, until ``stop``."""
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of [start, end], else over all samples."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return statistics.median(self.durations[lo:hi] or self.durations)

    def scaled(self, start: float, end: float) -> float:
        """The seconds from ``start`` to ``end`` on the probe's clock, at the reference speed."""
        return (end - start) * REFERENCE_S / self.kernel_s(start, end)

    def factor(self) -> float:
        """REFERENCE_S over the median of every kernel time: scales a whole run."""
        return REFERENCE_S / statistics.median(self.durations)
