"""A speed probe that scales measured times to a fixed machine speed.

The benchmark's reference machine is a shared VM whose speed drifts by up to
about 1.9x over seconds to minutes, and the kohnert code slows with it.  Over
one-second windows of 90 seconds, query items, a small sweep and this probe
each spread by 0.16 to 0.19 of their median (quartile distance), their ratios
by 0.04 to 0.10, and the slope of log item time on log probe time was 0.9 to
1.0.  So while a pass runs, a timer signal runs a fixed
pure-Python routine, the probe, every ``PROBE_EVERY_S`` seconds; traced
passes, whose spans the probe must stay out of, probe between segments only.  A timed
segment's time is its wall time less the probes inside it, divided by how
much slower than ``NOMINAL_PROBE_S`` the probes in and around it ran.  The
result reads as seconds on a machine on which the probe takes
``NOMINAL_PROBE_S``, about this VM's fast state.  The probe is the
benchmark's own code, so a change to kohnert moves the segment times and not
the probe's; the raw times are kept alongside.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

#: Probe time, in seconds, that the scaled times are expressed against.
NOMINAL_PROBE_S = 0.001

#: Probes at most this far (seconds) before a segment's start or after its
#: end set that segment's speed.
WINDOW_S = 0.25

#: Seconds between two probes while ticking.
PROBE_EVERY_S = 0.05


#: The key diagram whose Kohnert closure the probe computes (175 diagrams).
PROBE_COMPOSITION = (0, 0, 0, 2, 2, 2)


def _routine(a: tuple[int, ...] = PROBE_COMPOSITION) -> int:
    """A Kohnert closure written afresh, so that it does the kind of work the
    kohnert code does (frozensets of cells, set lookups, a search), yet no
    change to kohnert changes it."""
    start = frozenset((r + 1, c) for r, n in enumerate(a) for c in range(1, n + 1))
    seen, stack = {start}, [start]
    while stack:
        d = stack.pop()
        rightmost: dict[int, int] = {}
        for r, c in d:
            if c > rightmost.get(r, 0):
                rightmost[r] = c
        for r, c in rightmost.items():
            for below in range(r - 1, 0, -1):
                if (below, c) not in d:
                    moved = (d - {(r, c)}) | {(below, c)}
                    if moved not in seen:
                        seen.add(moved)
                        stack.append(moved)
                    break
    return len(seen)


class Speedometer:
    """Times the probe now and then; scales segment times by the nearby probes."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (start, end) of each probe
        self.cpu_s = 0.0  # CPU time the probes took, for callers to leave out
        self._busy = False

    def probe(self) -> None:
        if self._busy:  # a tick arrived while probing
            return
        self._busy = True
        cpu = time.process_time()
        start = time.perf_counter()
        _routine()
        end = time.perf_counter()
        self.cpu_s += time.process_time() - cpu
        self.marks.append((start, end))
        self._busy = False

    def maybe_probe(self) -> None:
        """Probe unless the latest probe ended less than PROBE_EVERY_S ago."""
        if not self.marks or time.perf_counter() - self.marks[-1][1] >= PROBE_EVERY_S:
            self.probe()

    @contextmanager
    def ticking(self):
        """Probe every PROBE_EVERY_S seconds from a SIGALRM timer, and once at each end."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def measured(self, start: float, end: float) -> float:
        """The segment's wall time less the probes that ran inside it."""
        inside = sum(e - s for s, e in self.marks if start <= s and e <= end)
        return end - start - inside

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than nominal the machine ran from start to end."""
        near = [e - s for s, e in self.marks if start - WINDOW_S <= s and e <= end + WINDOW_S]
        if not near:  # no probe close by: take the closest one
            s, e = min(self.marks, key=lambda m: min(abs(m[0] - end), abs(m[1] - start)))
            near = [e - s]
        return sum(near) / len(near) / NOMINAL_PROBE_S

    def scaled(self, start: float, end: float) -> float:
        """The segment's seconds at the nominal speed."""
        return self.measured(start, end) / self.slowdown(start, end)
