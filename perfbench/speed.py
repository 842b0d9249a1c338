"""Machine speed, sampled while the benchmark's ops run.

On the virtual machine of the baseline in README.md, the same op runs
15-30% slower or faster from one minute to the next, and a fixed 50 ms
kernel varies by a similar amount between back-to-back calls.  The process's CPU time
tracks its wall time, so this is a slower machine, not a descheduled
process.  Wall times alone therefore spread more across runs than the
benchmark's bounds allow.

``SpeedProbe`` raises SIGALRM every ``PERIOD`` seconds.  Its handler
runs in the main thread between bytecodes, times one call of a fixed
kernel that does not use aoc, and adds that time to ``spent``.
``normalized`` turns an op's wall time into seconds at the nominal
speed, after taking out the probe's own time.  The kernel has the same
mix as aoc's hot path: small einsum and matmul calls driven by the
interpreter.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD = 0.1          # seconds between samples
REFERENCE_S = 0.0015  # the kernel's time at nominal speed, about its median on the baseline host
_STRUCTURE = np.zeros((3, 3, 3))
for _k, _i, _j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _STRUCTURE[_k, _i, _j], _STRUCTURE[_k, _j, _i] = 1.0, -1.0


def reference_kernel(iterations=60):
    """A fixed amount of small-array numpy work; returns nothing."""
    y = np.array([0.3, -0.2, 0.1])
    x = np.eye(3)
    for _ in range(iterations):
        y = y + 1e-3 * np.einsum("kij,...i,...j->...k", _STRUCTURE, y, y + 0.1)
        x = np.matmul(x, np.eye(3) + 1e-3 * np.outer(y, y))
        np.sqrt(np.einsum("...i,...i->...", y, y))


class SpeedProbe:
    """Context manager that samples the kernel's time every PERIOD seconds."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference_kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._sample(None, None)  # so that there is always a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """A position to pass to ``normalized`` after the op."""
        return len(self.samples), self.spent

    def normalized(self, mark, wall_s):
        """(seconds at nominal speed, speed factor) for an op that took
        ``wall_s`` since ``mark``.  The factor is the mean kernel time
        during the op over REFERENCE_S.  An op too short to hold a
        sample uses all samples so far."""
        first, spent = mark
        during = self.samples[first:] or self.samples
        factor = statistics.fmean(during) / REFERENCE_S
        return (wall_s - (self.spent - spent)) / factor, factor
