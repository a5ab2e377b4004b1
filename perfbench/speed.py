"""Machine-speed correction for measured times.

The shared machines this benchmark runs on drift in speed by tens of
percent over tens of seconds as other tenants come and go, which swamps
the differences a benchmark exists to show.  While a worker measures, a
wall-clock timer interrupts it every ``PERIOD_S`` and times two fixed
chunks of work that do not touch the library: an interpreted loop over a
small dict, and C-level scans over a mid-size dict, the two kinds of work
the library's hot loops mix.  Their geometric mean, divided by its
nominal value, is the machine's slowness at that moment; a rolling median
over ``SMOOTH`` samples removes single-sample spikes.

A measured interval [a, b] is then reported as its nominal duration, the
integral of dt / slowness(t) over it: the time it would have taken at
nominal speed.  The chunks cost about 2% of the measured time, the same
on every commit.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
SMOOTH = 9
# Geometric mean of the two chunk durations at nominal speed.
NOMINAL_S = 0.0008

_SCAN = {((i * 2654435761) & 0xFFFFFF) << 20 | i: i for i in range(20000)}


def _interpreted_chunk() -> None:
    table: dict[int, int] = {}
    for i in range(2000):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + (i * i) % 97


def _scan_chunk() -> None:
    for _ in range(2):
        max(_SCAN)
        sum(_SCAN.values())


class Speedometer:
    """Samples (time, interpreted chunk s, scan chunk s) while the block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        _interpreted_chunk()
        mid = perf_counter()
        _scan_chunk()
        self.samples.append((start, mid - start, perf_counter() - mid))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def nominal_durations(samples, intervals) -> list[float]:
    """Nominal duration of each (start, duration) interval, given the
    speedometer samples taken over the same clock."""
    if not samples:
        return [d for _, d in intervals]
    ts = [t for t, _, _ in samples]
    raw = [math.sqrt(a * b) / NOMINAL_S for _, a, b in samples]
    half = SMOOTH // 2
    slow = [
        statistics.median(raw[max(0, i - half) : i + half + 1])
        for i in range(len(raw))
    ]
    # cum[i]: nominal time from ts[0] to ts[i]; slowness slow[i] holds on
    # (ts[i-1], ts[i]], and the end values hold beyond the first and last sample.
    cum = [0.0]
    for i in range(1, len(ts)):
        cum.append(cum[-1] + (ts[i] - ts[i - 1]) / slow[i])

    def at(t: float) -> float:
        j = bisect.bisect_left(ts, t)
        if j == 0:
            return (t - ts[0]) / slow[0]
        if j == len(ts):
            return cum[-1] + (t - ts[-1]) / slow[-1]
        return cum[j - 1] + (t - ts[j - 1]) / slow[j]

    return [at(s + d) - at(s) for s, d in intervals]
