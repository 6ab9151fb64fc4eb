"""Host-speed normalisation of measured times.

The benchmark runs on small shared virtual machines whose speed drifts
by tens of percent within seconds: a neighbour's load makes the same
operation take longer, with no steal time or load visible in the guest.
A calibration loop timed *between* operations does not track that drift,
and neither does one run on the other vCPU at the same time; only
samples taken on the same vCPU, interleaved with the measured code,
move with it.

:class:`SpeedProbe` takes those samples.  While a region is measured,
a ``SIGALRM`` timer interrupts it every :data:`INTERVAL_S` and runs one
:func:`calibration_slice`, a fixed piece of pure-Python work that uses
none of the program's code.  A region's *reference seconds* are the
wall seconds the program itself used (the slices taken out) times the
host's mean speed over the region, ``REFERENCE_SLICE_S / slice time``:
the time the region would take on a host that runs one slice in
:data:`REFERENCE_SLICE_S`.  The figure moves one for one with the
program's own work and hardly at all with the host's drift.

Python runs a signal handler between bytecodes of the main thread, so a
slice lands inside the program's interpreter loop, where its time goes.
The timer is one-shot and re-armed after each slice, so slices never
nest.  A probe takes a slice right before and right after its region
(outside the wall time), so even a region shorter than the interval
has a speed reading.
"""

from __future__ import annotations

import heapq
import signal
import time
from dataclasses import dataclass
from typing import List, Optional

INTERVAL_S = 0.025          # wall time between calibration slices
REFERENCE_SLICE_S = 0.001   # one slice on the reference host


def calibration_slice() -> None:
    """A fixed piece of interpreter work: heap and dict traffic."""
    heap: List[int] = []
    counts = {}
    for index in range(1500):
        heapq.heappush(heap, (index * 7919) % 10007)
        key = index % 97
        counts[key] = counts.get(key, 0) + 1
    while heap:
        heapq.heappop(heap)


@dataclass
class Reading:
    """What one probed region took."""

    wall_s: float       # wall time of the region, slices included
    probe_s: float      # time spent in calibration slices inside it
    slices: List[float]  # every slice's duration, bracket slices included

    @property
    def program_s(self) -> float:
        """Wall seconds the program itself used."""
        return self.wall_s - self.probe_s

    @property
    def speed(self) -> float:
        """Mean host speed over the region, relative to the reference."""
        return (sum(REFERENCE_SLICE_S / s for s in self.slices)
                / len(self.slices))

    @property
    def reference_s(self) -> float:
        """Seconds the region would take on the reference host."""
        return self.program_s * self.speed


class SpeedProbe:
    """Interleave calibration slices with a measured region.

    Use ``start()`` … ``stop()`` around the region; ``stop`` returns a
    :class:`Reading` and keeps it in ``readings``.  Only the main thread
    may use a probe.
    """

    def __init__(self) -> None:
        self._active = False
        self._slices: List[float] = []
        self._inside = 0.0
        self._started = 0.0
        self._previous: Optional[object] = None
        self.readings: List[Reading] = []

    def _slice(self) -> float:
        started = time.perf_counter()
        calibration_slice()
        took = time.perf_counter() - started
        self._slices.append(took)
        return took

    def _on_alarm(self, signum, frame) -> None:
        if not self._active:
            return
        self._inside += self._slice()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._slices = []
        self._inside = 0.0
        self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> Reading:
        self._active = False
        wall = time.perf_counter() - self._started
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        reading = Reading(wall_s=wall, probe_s=self._inside,
                          slices=self._slices)
        self._slice()
        self.readings.append(reading)
        return reading
