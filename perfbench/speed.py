"""Machine speed, sampled while the program runs.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter or more over seconds to minutes, the same for every program on
it.  Plain wall times of one and the same code then spread past the
benchmark's bounds from one run to the next.  :class:`Speedometer`
interrupts the program every :data:`INTERVAL_S` of CPU time (``SIGPROF``)
and times one fixed reference slice of interpreter and numpy work, which
tells how fast the host runs at that moment.

A timed interval is reported in *reference seconds*: its wall time less
the slices' own time, scaled by :data:`REFERENCE_SLICE_S` over the mean
slice time inside the interval.  A program that does less work reads
lower; a host that slows the program and the slices alike reads the
same.  The plain wall times stay in the benchmark's record beside them.
"""

import signal
import time
from dataclasses import dataclass

import numpy

#: CPU time between two reference slices.
INTERVAL_S = 0.05

#: The nominal time of one reference slice: a timed interval in which
#: the slices took this long on average reports its own wall time.  It
#: is the slice's median on the 2-vCPU x86 VM the benchmark was tuned on.
REFERENCE_SLICE_S = 1.4e-3

_SLICE_LOOPS = 6000
_SLICE_ARRAY_OPS = 120
_SLICE_ARRAY = numpy.arange(64.0)


def reference_slice() -> float:
    """A fixed piece of interpreter and small-array numpy work."""
    total = 0
    table = {}
    for index in range(_SLICE_LOOPS):
        total += index * index % 7
        table[index & 63] = total
    values = _SLICE_ARRAY
    for _ in range(_SLICE_ARRAY_OPS):
        values = numpy.maximum.accumulate(_SLICE_ARRAY) + values * 0.5
    return float(values[-1]) + total


@dataclass
class Reading:
    """One timed interval: the program's own wall time and the slices in it."""

    own_s: float = 0.0
    slices: int = 0
    slice_s: float = 0.0

    def __add__(self, other: "Reading") -> "Reading":
        return Reading(
            self.own_s + other.own_s,
            self.slices + other.slices,
            self.slice_s + other.slice_s,
        )

    def reference_s(self, fallback_slice_s: float) -> float:
        """The interval in reference seconds.

        ``fallback_slice_s`` stands in for the mean slice time when the
        interval was too short to hold a slice.
        """
        mean = self.slice_s / self.slices if self.slices else fallback_slice_s
        return self.own_s * REFERENCE_SLICE_S / mean


class Speedometer:
    """Times a reference slice every :data:`INTERVAL_S` of CPU time.

    Between :meth:`install` and :meth:`uninstall`, ``slices`` counts the
    slices taken and ``slice_s`` sums their times.
    """

    def __init__(self) -> None:
        self.slices = 0
        self.slice_s = 0.0
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        started = time.perf_counter()
        reference_slice()
        self.slice_s += time.perf_counter() - started
        self.slices += 1

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def mean_slice_s(self) -> float:
        """Mean slice time so far (the nominal one before the first slice)."""
        return self.slice_s / self.slices if self.slices else REFERENCE_SLICE_S

    def start(self) -> tuple:
        return (time.perf_counter(), self.slices, self.slice_s)

    def stop(self, mark: tuple) -> Reading:
        wall = time.perf_counter() - mark[0]
        spent = self.slice_s - mark[2]
        return Reading(own_s=wall - spent, slices=self.slices - mark[1], slice_s=spent)
