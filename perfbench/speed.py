"""Host-speed probe: scale measured times to one reference speed.

On a shared host the same pass can take 40% longer when other tenants load
the machine, and such phases last from a second to minutes, longer than a
run.  The runner therefore times a fixed pure-Python loop (the probe, which
never touches the library) every EVERY_S seconds while a pass runs, and
scales each cell's time by REFERENCE_S / (probe time during that cell).  A
change to the library cannot change the probe, so a real slowdown still
shows in full; what cancels is the host's speed at the moment.  Scaled times
read as seconds on a host where the probe takes REFERENCE_S (the fast phase
of a shared 2-core x86-64 VM with Python 3.11).

The probes run from a SIGALRM handler, so they also fire inside a cell that
lasts many seconds (the cold pass's coefficient build), and `Sampler.clock`
leaves the time they take out of every cell and span.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

REFERENCE_S = 0.0075
PROBE_N = 50_000
EVERY_S = 0.25


def probe() -> float:
    """Seconds the fixed loop takes right now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(PROBE_N):
        x = i * 1e-4
        s += math.exp(-x) * math.sqrt(x + 1.0)
    return time.perf_counter() - t0


class Sampler:
    """Probes taken while a pass runs, and a clock that excludes them."""

    def __init__(self) -> None:
        self.paused = 0.0  # seconds spent probing so far
        self.samples: list[tuple[float, float]] = []  # (clock time, probe seconds)

    def clock(self) -> float:
        while True:  # retry if a probe ran while reading
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:
                return now - paused

    def _probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.samples.append((t0 - self.paused, probe()))
        self.paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self):
        """Probe at the start, every EVERY_S, and at the end."""
        self.samples = []
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._probe()


def factors(samples: list[tuple[float, float]], spans: list[tuple[float, float]]) -> list[float]:
    """Scale factor per (start, end) span.

    A span is scaled by the mean speed of the probes inside it and the last
    probe before it and the first after it.  A running median of three over
    the probes drops single probes hit by a scheduler hiccup.
    """
    times = [t for t, _ in samples]
    probes = [p for _, p in samples]
    n = len(probes)
    smooth = [statistics.median(probes[max(0, j - 1):j + 2]) for j in range(n)]
    out = []
    for t0, t1 in spans:
        lo = max(0, bisect.bisect_right(times, t0) - 1)
        hi = min(n - 1, bisect.bisect_left(times, t1))
        out.append(REFERENCE_S * statistics.fmean(1.0 / p for p in smooth[lo:hi + 1]))
    return out


SAMPLER = Sampler()
