"""A clock that scales wall time to a reference CPU speed.

On a shared virtual host the speed of one vCPU swings by up to 1.8x in
phases that last seconds to minutes, and the other vCPU does not follow it,
so a busy loop on another core cannot stand in for it. This clock samples
the speed of the process's own CPU instead: a timer signal every
``PERIOD_S`` runs a fixed loop of Python bytecode in the main thread
(twice; the faster run counts), and the wall time since the previous sample
is scaled by ``REF_S / loop time``. The loop's own time
is left out of both sums. A program that does the same work in less CPU
time reads faster on this clock exactly as on a wall clock; a change in the
host's speed during the work does not.

The signal handler runs between bytecodes, so an interval that ends in a
long C call is scaled by the sample taken right after that call. Work spread
over threads other than the main one is not sampled; spkid runs in one
thread and the benchmark fixes BLAS to one thread.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
LOOP_ITERS = 3000
REF_S = 250e-6  # loop time at the reference speed (about this host's fast phase)


def _loop() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(LOOP_ITERS):
        x += i * i
    return time.perf_counter() - start


class SpeedClock:
    """Wall seconds and reference-speed seconds since ``start()``, sampling loops excluded."""

    def __init__(self):
        self.wall = self.scaled = 0.0
        self.loops: list[float] = []
        self._last = None

    def start(self) -> "SpeedClock":
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _tick(self, *_):
        now = time.perf_counter()
        loop = min(_loop(), _loop())
        self.wall += now - self._last
        self.scaled += (now - self._last) * REF_S / loop
        self.loops.append(loop)
        self._last = time.perf_counter()

    def read(self) -> tuple[float, float]:
        """(wall, scaled) seconds so far; takes one sample to close the current interval."""
        self._tick()
        return self.wall, self.scaled

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return self.read()
