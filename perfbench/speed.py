"""Samples of the speed of the CPU the benchmark runs on.

On a shared host the speed of each vCPU drifts by tens of percent over
seconds and minutes, and the other vCPU does not follow it.  ``probe()``
times a fixed piece of work of about 3 ms, small LAPACK calls plus
interpreter work, that never touches the library, so only the machine can
change its time.  Timings divided by probe times taken on the same CPU at
the same time cancel most of the drift.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.2
# typical probe() time on the 2-vCPU machine of the baseline figures in
# README.md; a time t measured next to probe time p is reported as
# t * NOMINAL_S / p, that machine's seconds at its usual speed
NOMINAL_S = 0.003

_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
_MATRIX = _MATRIX + _MATRIX.T
_eigh = np.linalg.eigh  # bound before tracing wraps numpy.linalg.eigh


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    for _ in range(20):
        _eigh(_MATRIX)
    counts: dict = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


class SpeedProbe:
    """Runs ``probe()`` every PERIOD_S on the main thread while active.

    A timer signal interrupts whatever the main thread runs, so the samples
    come from the CPU and the moments the measured code runs on.
    ``samples`` holds (start, seconds) pairs.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0, probe()))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, t0: float, t1: float) -> float:
        """Seconds the probe took between ``t0`` and ``t1``."""
        return sum(d for start, d in self.samples if t0 <= start < t1)
