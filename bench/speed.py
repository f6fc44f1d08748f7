"""Timing at a reference machine speed on a shared host.

The benchmark runs on small shared virtual machines whose speed changes
by 30% or more within minutes as other tenants load the host, so raw wall
times of unchanged code differ by more than a regression bound. A probe
therefore samples the machine's speed inside every timed interval: SIGALRM
fires every PROBE_INTERVAL_S and its handler times probe(), a fixed piece
of pure-Python work. An interval's reference-speed time is its own time
(the handler's time taken out) times PROBE_REF_S over the mean probe
duration within the interval. A change to the code under test moves the
interval's time and not the probe's, so it shows in full; a slower or
faster host moves both, and that cancels.

The probe is pure Python, so it also samples the import of numpy. On a
2-vCPU Xeon VM it costs 1% to 2% of the timed work, and it cuts the
coefficient of variation of one panel's repeated time from 0.12-0.23 to
0.03-0.05.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

PROBE_INTERVAL_S = 0.05
PROBE_ITEMS = 800
# probe()'s duration on the reference machine, a 2-vCPU Xeon VM running
# Python 3.11.7, while its host is quiet; it only fixes the unit of
# reference-speed seconds.
PROBE_REF_S = 4.0e-4

# The probe builds small objects and dict entries, as interpreted code
# does. On the reference machine its time tracks the pipeline's time
# across host load with a log-log slope of 1.0; an arithmetic loop gave a
# slope of 1.3, so host load still moved the scaled times. Its working set
# is a few kilobytes: a probe that reads a large table finds it evicted by
# the pipeline, and would then time the pipeline's cache footprint as well
# as the host.


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def probe() -> int:
    """Fixed work: small objects and dict updates."""
    counts: dict[str, int] = {}
    for i in range(PROBE_ITEMS):
        item = _Item(str(i & 63), i)
        counts[item.key] = counts.get(item.key, 0) + item.value
    return len(counts)


@dataclass(frozen=True)
class Timing:
    wall: float  # reference-speed wall seconds
    cpu: float  # reference-speed process CPU seconds
    raw_wall: float  # wall seconds, probe time taken out
    raw_cpu: float


class SpeedProbe:
    """Samples probe() on a timer while started. Intervals timed while it
    is stopped, or before it has taken a sample, keep their raw times."""

    def __init__(self):
        self.durations: list[float] = []
        self.busy_wall = 0.0
        self.busy_cpu = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.durations.append(wall)
        self.busy_wall += wall
        self.busy_cpu += cpu

    def interval(self) -> Interval:
        return Interval(self)


class Interval:
    """One timed interval; stop() returns its Timing."""

    def __init__(self, speed: SpeedProbe):
        self.speed = speed
        self.first = len(speed.durations)
        self.busy = (speed.busy_wall, speed.busy_cpu)
        self.start = (time.perf_counter(), time.process_time())

    def stop(self) -> Timing:
        wall = time.perf_counter() - self.start[0]
        cpu = time.process_time() - self.start[1]
        speed = self.speed
        wall -= speed.busy_wall - self.busy[0]
        cpu -= speed.busy_cpu - self.busy[1]
        # An interval shorter than PROBE_INTERVAL_S may hold no probe; the
        # last probe before it stands in.
        durations = speed.durations[self.first:] or speed.durations[-1:]
        scale = PROBE_REF_S / statistics.fmean(durations) if durations else 1.0
        return Timing(wall * scale, cpu * scale, wall, cpu)
