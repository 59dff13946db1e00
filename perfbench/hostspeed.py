"""Host-speed sampling: the benchmark's times at the host's reference speed.

The benchmark runs on shared virtual machines whose vCPUs each switch,
for half a second to minutes at a time, between a fast state and one
about 1.5x slower, with no sign of it inside the guest (no steal time;
CPU time grows with wall time).  A rep's wall time then measures the neighbours as much as the
program: on a 2-vCPU Intel Xeon host, back-to-back reps of one workload
varied by up to 1.9x.

While a :class:`SpeedSampler` runs, ``SIGALRM`` interrupts the main
thread every :data:`INTERVAL_S` (between bytecodes, so never inside a
native call) and times :func:`probe`, a fixed pure-Python loop.  An
interval the benchmark timed is reported as its wall time minus the
probes' own time inside it, scaled by the mean of
``REFERENCE_PROBE_S / probe time`` over those probes: the time the same
work takes when every probe runs at the reference speed.  Probes sample
the interval uniformly, so the mean speed ratio weights each stretch of
the interval by its length.  An interval too short to hold
:data:`MIN_PROBES` probes is scaled by the probes nearest its middle.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Any, List, Optional

#: Seconds between probes.  A probe takes 2% of this in the fast state
#: and 4% in the slow one, and a timed interval's probes as much of it.
INTERVAL_S = 0.01

#: :func:`probe`'s duration in the fast state of the reference host
#: (2-vCPU Intel Xeon at 2.0 GHz, Python 3.11.7; tenth percentile of
#: 3 300 probes taken inside the workloads), so reported times are that
#: host's fast-state seconds.  The slow state's probes take 0.33-0.37 ms.
REFERENCE_PROBE_S = 2.2e-4

#: Fewest probes a speed estimate rests on.
MIN_PROBES = 8


def probe() -> int:
    """A fixed pure-Python loop: dict stores, integer arithmetic and a
    dict scan, the operations the simulator's interpreted paths are made
    of."""
    table = {}
    for i in range(1000):
        table[i] = (i * 2654435761) % 1000003
    total = 0
    for key, value in table.items():
        total += value & key
    return total


class SpeedSampler:
    """Times :func:`probe` on every ``SIGALRM`` while in a ``with`` block
    on the main thread; :meth:`seconds` converts an interval afterwards."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        #: Start time and duration of every probe, in start order.
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous: Any = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        probe()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the wall interval ``[start, end)``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        work = end - start - sum(self.durations[lo:hi])
        if hi - lo < MIN_PROBES:
            middle = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(middle - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            hi = lo + MIN_PROBES
        return work * self.speed(lo, hi)

    def speed(self, lo: int = 0, hi: Optional[int] = None) -> float:
        """Mean speed relative to the reference over probes ``lo:hi``
        (all by default); below 1 on a slower host or state."""
        durations = self.durations[lo:hi]
        if not durations:
            raise RuntimeError("no host-speed probes were taken")
        return statistics.fmean(REFERENCE_PROBE_S / d for d in durations)
