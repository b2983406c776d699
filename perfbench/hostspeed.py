"""Rescale a timed interval to a fixed reference speed of the host.

The hosts this benchmark runs on are shared: other tenants slow every job
down, in phases from a fraction of a second to minutes long, by up to 1.9x.
CPU time slows with wall time, so the loss is speed, not waiting.  A median
over a run's jobs cannot remove a slow phase that outlasts the run.

``Probe`` measures the host's speed while a job runs.  A timer signal
interrupts the job every ``interval`` seconds and times a fixed piece of
pure-Python work (``work``).  Each slice of the job between two probes is
rescaled by ``REFERENCE_S / probe time`` of the probe that ends it, so a
slice that ran at half speed counts half.  The sum is the interval's length
on a host whose probe takes ``REFERENCE_S``; the probes' own time is taken
out.  Wall and CPU time are rescaled the same way.  A change to djkm does
not change the probe, so it moves the rescaled time as it moves the raw one.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import List, Tuple

#: Probe time, in seconds, of the reference host the rescaled times are for.
REFERENCE_S = 0.0015

_BIG_A = 3**600
_BIG_B = 7**500


def work() -> None:
    """Fixed work of the kind djkm does: Fraction and big-integer arithmetic."""
    x = Fraction(1)
    for k in range(1, 75):
        x = x * Fraction(2 * k + 1, k + 3) + Fraction(1, k)
    y = 0
    for k in range(120):
        y = (y + _BIG_A * _BIG_B) % (_BIG_B + k)


class Probe:
    """Times ``work`` on every SIGALRM while started, and once at ``stop``."""

    def __init__(self, interval: float):
        self.interval = interval
        #: (wall start, CPU start, wall duration, CPU duration) of each probe
        self.marks: List[Tuple[float, float, float, float]] = []
        self._previous = None

    def _measure(self, *_) -> None:
        wall, cpu = time.monotonic(), time.process_time()
        work()
        self.marks.append((wall, cpu, time.monotonic() - wall, time.process_time() - cpu))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._measure)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> Tuple[float, float]:
        """Stop probing; return the wall and CPU clocks at the stop.

        One last probe runs after the clocks are read, so the tail of the
        interval also has a probe that ends it.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.monotonic(), time.process_time()
        signal.signal(signal.SIGALRM, self._previous)
        self._measure()
        return wall, cpu

    def rescale(self, wall0: float, wall1: float, cpu0: float, cpu1: float) -> dict:
        """Raw and rescaled wall and CPU time of ``[wall0, wall1]``, probes excluded."""
        raw_wall = raw_cpu = wall = cpu = 0.0
        at_wall, at_cpu = wall0, cpu0
        for start_wall, start_cpu, probe, probe_cpu in self.marks:
            slice_wall = min(start_wall, wall1) - at_wall
            slice_cpu = min(start_cpu, cpu1) - at_cpu
            raw_wall += slice_wall
            raw_cpu += slice_cpu
            wall += slice_wall * REFERENCE_S / probe
            cpu += slice_cpu * REFERENCE_S / probe
            if start_wall >= wall1:
                break
            at_wall, at_cpu = start_wall + probe, start_cpu + probe_cpu
        return {"raw_wall": raw_wall, "raw_cpu": raw_cpu, "wall": wall, "cpu": cpu}
