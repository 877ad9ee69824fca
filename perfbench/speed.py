"""Machine speed, sampled around and during every timed operation.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds (other tenants, frequency changes).  A fixed reference loop,
shaped like the package's hot path (scalar complex arithmetic, cmath square
roots and numpy operations on 15-element arrays), is timed right before and
right after each operation, and in short bursts from a SIGALRM handler
every INTERVAL_S while the operation runs (the bursts' own time is taken
out of the operation's).  The operation's time is then scaled to a machine
on which one loop iteration takes NOMINAL_ITERATION_S, using the mean
iteration time of all those samples.  The raw times stay in the report.
"""

from __future__ import annotations

import cmath
import signal
import time

import numpy as np

NOMINAL_ITERATION_S = 20e-6
INTERVAL_S = 0.05
_BURST = 64
_NODES = np.linspace(-1.0, 1.0, 15)


def iteration_seconds(n: int = 2400) -> float:
    """Mean time of one reference-loop iteration over n iterations."""
    t0 = time.perf_counter()
    acc = 0j
    for i in range(n):
        z = complex(1.0 + 1e-4 * i, 0.5)
        w = cmath.sqrt(z * (z - 2.0) * (z + 0.5))
        x = z + 0.1 * _NODES
        y = np.sqrt(x * (x - 2.0) * (x + 0.5))
        acc += w + complex(np.sum(y / x))
    return (time.perf_counter() - t0) / n


class Timed:
    """Context manager timing one operation while sampling the machine speed.

    `before` is the iteration time measured just before entering; pass the
    one measured just after leaving to `scaled`.
    """

    def __init__(self, before: float):
        self.samples = [before]
        self.burst_s = 0.0
        self.elapsed = 0.0

    def _burst(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(iteration_seconds(_BURST))
        self.burst_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.elapsed = time.perf_counter() - self._t0 - self.burst_s
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, after: float) -> float:
        return scale(self.elapsed, self.samples + [after])


def scale(seconds: float, iteration_samples) -> float:
    """`seconds` on a machine whose mean iteration time was the samples' mean,
    scaled to one whose iteration takes NOMINAL_ITERATION_S."""
    return seconds * NOMINAL_ITERATION_S * len(iteration_samples) / sum(iteration_samples)
