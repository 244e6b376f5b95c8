"""Host speed, sampled while a workload runs, for scaling times to a
reference speed.

The benchmark runs on shared machines whose per-core speed drifts: on the
2-CPU host it was written on, a fixed loop took anywhere from 35 to 77 ms
within one minute, in phases lasting seconds. That drift alone moved the
wall time of identical passes by 30%. So a timer signal runs a fixed probe
loop PROBE_REPEAT times every PROBE_INTERVAL seconds during the timed
section. Each item's time is scaled by REFERENCE_NS / (mean probe time
during that item): the time the item would have taken on a host where the
probe takes REFERENCE_NS. The raw wall times are reported beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL = 0.1
# Probes run back to back at each tick; their mean is one sample. A single
# probe right after the interrupt starts with cold caches and reacted to
# contention more than the package's code does (scaled census8 passes spread
# by 10% in quartiles with one probe per 20 ms tick, by 4% with ten per
# 100 ms tick).
PROBE_REPEAT = 10
# The probe's time on the host above in its fast phases (Python 3.11).
REFERENCE_NS = 180_000


def probe() -> int:
    """Nanoseconds taken by a fixed amount of interpreter work.

    The mix (small tuples, sorting, dict updates, bit counts and
    comprehensions) is the kind of work the package does, which makes the
    probe track the package's speed more closely than a bare arithmetic
    loop; it calls no package code, so a change to the package cannot
    change the probe.
    """
    start = time.perf_counter_ns()
    seen: dict[tuple[int, ...], int] = {}
    acc = 0
    for i in range(150):
        row = tuple(sorted(((i * 37) & 15, (i * 11) & 31, i & 7)))
        key = row + (i & 3,)
        seen[key] = seen.get(key, 0) + 1
        acc += (i * 0x9E3779B1 & 0xFFFFFF).bit_count()
        acc += len([x for x in row if x & 1])
    return time.perf_counter_ns() - start


class Sampler:
    """Runs the probe on a wall-clock timer and keeps its times.

    ``spent_ns`` is the time taken by the probes themselves, which callers
    subtract from the intervals they measure.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[int] = []
        self.spent_ns = 0

    def _tick(self, signum, frame):
        start = time.perf_counter_ns()
        self.samples.append(statistics.fmean(probe() for _ in range(PROBE_REPEAT)))
        self.times.append(start)
        self.spent_ns += time.perf_counter_ns() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor from this host's measured speed to the reference speed
        over [start_ns, end_ns], from the ticks inside it, widened to the
        nearest two ticks for an interval shorter than that."""
        lo = bisect.bisect_left(self.times, start_ns)
        hi = bisect.bisect_right(self.times, end_ns)
        while hi - lo < 2 and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return scale_of(self.samples[lo:hi] or [probe()])


def scale_of(samples) -> float:
    """REFERENCE_NS over the mean probe time, leaving out the fastest and
    slowest tenth of the samples."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REFERENCE_NS / statistics.fmean(ordered[cut : len(ordered) - cut])


def scale_now() -> float:
    """The same factor, from one tick's probes run right now."""
    return scale_of([probe() for _ in range(PROBE_REPEAT)])
