"""Summary statistics and the host-speed probe used by the benchmark.

Latency percentiles use the nearest-rank method on the exact sample
list.  A percentile is only reported when at least
:data:`MIN_BEYOND` samples lie beyond it, so the p95 of a run needs at
least 200 samples (:func:`min_samples`).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "nearest_rank",
    "percentile",
    "samples_beyond",
    "min_samples",
    "HostProbe",
]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(count: int, q: float) -> int:
    """1-based rank of the *q* quantile (0 < q <= 1) among *count* samples."""
    if count <= 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    # Round before the ceiling so 0.95 * 200 (190.00000000000003) is rank 190.
    return max(1, math.ceil(round(q * count, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank *q* quantile of *values*."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly above the *q* quantile's rank."""
    return count - nearest_rank(count, q)


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves *beyond* samples past the *q* quantile."""
    count = 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


class HostProbe:
    """Fixed work, independent of the program, timed between passes.

    The host's speed drifts by 15% and more over minutes (other tenants
    of the machine), so two runs of identical work can differ that much.
    The probe samples the host's speed during the run with the two kinds
    of work the program does: NumPy kernels over arrays (``arrays``) and
    interpreted Python over small objects (``objects``).  ``factor()`` is
    :data:`REFERENCE_S` over the run's median probe time: multiplying a
    measured time by it gives the time on a host of reference speed.
    """

    #: Median probe time on the reference host (2-core x86-64 VM).
    REFERENCE_S = 0.008

    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = rng.integers(0, 5000, 20_000)
        self.values = rng.random(20_000)
        self.names = {i: f"k{i}" for i in range(1000)}
        self.times: list[float] = []
        self.parts: list[tuple[float, float]] = []

    def _arrays(self) -> None:
        order = np.argsort(self.keys, kind="stable")
        np.bincount(self.keys, weights=self.values)
        np.searchsorted(self.keys[order], self.keys)
        np.unique(self.keys)

    def _objects(self) -> None:
        rows = [(self.names[i % 1000], i) for i in range(10_000)]
        rows.sort()

    def measure(self) -> float:
        """Time each part after an untimed run of it, and return the wall
        time of all four runs: the untimed run refills the caches the
        preceding op evicted, so the timed one sees the host, not the op."""
        started = time.perf_counter()
        timed = []
        for part in (self._arrays, self._objects):
            part()
            began = time.perf_counter()
            part()
            timed.append(time.perf_counter() - began)
        self.parts.append((timed[0], timed[1]))
        self.times.append(timed[0] + timed[1])
        return time.perf_counter() - started

    def factor(self) -> float:
        return self.REFERENCE_S / statistics.median(self.times)
