"""Request timing: host-speed correction and fixed-memory quantiles.

On a shared host, co-tenant load slows every instruction of this process by
up to 2x, in bursts lasting from a second to about a minute.  Thread CPU
time slows just as much, so it gives no escape.  A 10 s median therefore
moves by 30% or more between runs, whatever the program does.

A fixed kernel that never touches twospring runs between requests.  Each
request's time is multiplied by ``reference_ns / kernel_ns``, where
``kernel_ns`` is the mean of the kernel runs just before and just after the
request.  The result is the request time at the speed at which the kernel
takes ``reference_ns``.  Two kernels cover the two kinds of work the
workloads do:

* ``python``: interpreter-bound code (object creation, attribute access,
  float arithmetic), like the closed-form and formatting paths;
* ``numpy``: memory-bound array passes, like the oracle's grid scans.

Each reference is the kernel's 10th-percentile time between the requests
of its workloads, over 15 s on the machine where the benchmark was recorded
(see ``baseline.json``), so scaled times read close to raw ones on an
unloaded core.  It sets the scale only, never the ratio between two
commits.
"""

from __future__ import annotations

import math
import time


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def python_kernel() -> float:
    acc = 0.0
    for i in range(3000):
        p = _Point(i * 0.5, 1.0)
        acc += math.sqrt(p.x + p.y) if p.x > p.y else p.y
    return acc


def numpy_kernel() -> float:
    import numpy as np

    x = np.arange(500_000, dtype=np.float64)
    return float(np.count_nonzero(x * 0.5 + 1.0 >= 3.0))


KERNELS = {"python": (python_kernel, 830_000), "numpy": (numpy_kernel, 1_060_000)}


class HostSpeed:
    """Kernel timings taken between requests, and the factor they imply."""

    def __init__(self, kind: str) -> None:
        self.kernel, self.reference_ns = KERNELS[kind]
        self.kernel_ns: list[int] = []

    def sample(self) -> None:
        t = time.perf_counter_ns()
        self.kernel()
        self.kernel_ns.append(time.perf_counter_ns() - t)

    def factor(self) -> float:
        """Scale for requests made between the last two kernel samples."""
        return 2.0 * self.reference_ns / (self.kernel_ns[-2] + self.kernel_ns[-1])


_LOG_STEP = math.log(1.001)


class Histogram:
    """Durations counted in bins 0.1% wide on a log scale.

    Memory stays fixed however many requests a run makes, so the benchmark's
    own bookkeeping does not move ``peak_rss_mb`` with the request rate.
    Quantiles interpolate within a bin and are exact to 0.1%.
    """

    def __init__(self) -> None:
        self.bins: dict[int, int] = {}
        self.n = 0
        self.total_ns = 0.0

    def add(self, ns: float) -> None:
        b = int(math.log(max(ns, 1.0)) / _LOG_STEP)
        self.bins[b] = self.bins.get(b, 0) + 1
        self.n += 1
        self.total_ns += ns

    def quantile_us(self, q: float) -> float:
        """The ``q``-th percentile, in microseconds."""
        target = q / 100.0 * self.n
        seen = 0
        for b in sorted(self.bins):
            count = self.bins[b]
            if seen + count >= target:
                return math.exp((b + (target - seen) / count) * _LOG_STEP) / 1e3
            seen += count
        raise ValueError("quantile of an empty histogram")
