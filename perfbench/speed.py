"""Host speed probe: scales measured times to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed swings by up
to a factor of two in phases of seconds to minutes; CPU time swings with
it, so neither longer runs nor CPU clocks remove the swing.  ``probe`` times
a fixed piece of interpreter work (dict updates keyed by tuples, hashing,
a sort: the same kind of work twisthom does) that never calls twisthom, so
a change to the program cannot move it.  A time measured next to a probe
is scaled by ``REFERENCE_S / probe``: it reads as it would on a host where
the probe takes ``REFERENCE_S``.  Both the parent and the child commit of a
comparison are scaled by the same rule, so the reference cancels.

``probe`` runs the work three times and keeps the fastest, so that a
single preemption during a probe does not count as a slow phase.

``Sampler`` probes on a timer signal while operations run, so that even an
operation that runs for seconds is scaled by probes taken during it, and
takes the probes' own time back out of the operation's latency.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter

# The probe's time on a quiet 2-CPU host; only sets the scale of the
# reported figures.
REFERENCE_S = 0.0006

_ROUNDS = 3
_KEYS = 1500


def _work() -> int:
    table: dict = {}
    total = 0
    for i in range(_KEYS):
        key = (i % 97, i % 13, i & 7)
        table[key] = table.get(key, 0) + i
        total += hash(key) & 255
    return total + len(sorted(table.values(), reverse=True))


def probe() -> float:
    """Seconds the fixed probe work takes now (fastest of a few rounds)."""
    best = float("inf")
    for _ in range(_ROUNDS):
        start = perf_counter()
        _work()
        best = min(best, perf_counter() - start)
    return best


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * REFERENCE_S / probe_s


class Sampler:
    """Probes every ``interval`` seconds of wall time, on ``SIGALRM``.

    The handler runs between two bytecodes of the main thread, so a probe
    lies wholly inside or wholly outside any interval the caller times with
    ``perf_counter``.  ``start`` and ``stop`` probe once more each, so every
    interval between them has a probe on either side.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.starts: list[float] = []
        self.spans: list[float] = []   # wall time each probe took
        self.speeds: list[float] = []  # what each probe measured

    def _take(self, *_) -> None:
        # With the collector off, the probe's allocations cannot trigger a
        # collection; the operations then pay for the same collections as
        # they would unprobed, instead of whichever the timer lands near.
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        speed = probe()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.speeds.append(speed)
        self.spans.append(perf_counter() - start)

    def start(self) -> None:
        self._take()
        signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(latency, latency at reference speed) of the interval
        [start, end] timed between ``start()`` and ``stop()``: its wall
        time less the probes inside it, scaled by the mean of those probes
        and of the nearest probe on either side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        latency = end - start - sum(self.spans[lo:hi])
        near = self.speeds[max(lo - 1, 0):hi + 1]
        return latency, scale(latency, sum(near) / len(near))
