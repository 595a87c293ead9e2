"""Sample statistics and memory probes for the benchmark.

Timings are reported as a median plus the highest standard percentile
that still has at least :data:`TAIL_MIN_BEYOND` samples beyond it, always
with the sample count, so a tail figure is never read off two samples.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass

#: Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a percentile before it is reported.
TAIL_MIN_BEYOND = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives.

    A single sample is its own quartiles (``statistics.quantiles`` needs
    two).
    """
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(n: int) -> float | None:
    """Highest of :data:`TAIL_PERCENTILES` with >= 10 of ``n`` samples beyond.

    ``None`` when even the median lacks that many (fewer than 20 samples).
    """
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p
    return None


def describe(values: list[float]) -> dict:
    """Median, quartiles, sample count and the supported tail percentile."""
    q1, median, q3 = quartiles(values)
    out = {"n": len(values), "median": median, "q1": q1, "q3": q3}
    p = tail_percentile(len(values))
    if p is not None:
        ordered = sorted(values)
        rank = min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1)
        out[f"p{p:g}"] = ordered[rank]
    return out


def rss_mb(status_path: str = "/proc/self/status") -> tuple[float, float]:
    """Current ``(anonymous, total)`` resident set size in MB.

    Anonymous RSS counts pages the process allocated; total RSS also
    counts the file-backed pages of memory-mapped part files, which are
    reclaimable page cache.  Without a readable status file (not Linux)
    both fall back to the peak RSS ``getrusage`` reports.
    """
    anon = total = 0.0
    try:
        with open(status_path) as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    total = int(line.split()[1]) / 1024
                elif line.startswith("RssAnon:"):
                    anon = int(line.split()[1]) / 1024
    except (OSError, ValueError, IndexError):
        total = 0.0
    if not total:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        mb = peak / 1024 if sys.platform != "darwin" else peak / 1024**2
        return mb, mb
    return (anon or total), total


#: Iterations of the reference loop, and the seconds it is scaled to.
REFERENCE_LOOPS = 250_000
REFERENCE_NOMINAL_S = 0.05


def reference_seconds(loops: int = REFERENCE_LOOPS) -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed.

    On a shared host the speed of one core changes by as much as 1.7x
    within seconds (a busy sibling hyperthread), which moves every time
    the benchmark takes.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(loops):
        key = i & 1023
        table[key] = table.get(key, 0) + i * 3
    return time.perf_counter() - start


@dataclass(frozen=True)
class Calibrated:
    """A measured duration with the machine speed around it."""

    seconds: float
    #: Reference-loop time around the measurement over its nominal value
    #: (above 1 when the machine ran slower than nominal).
    slowdown: float

    @property
    def nominal_seconds(self) -> float:
        """The duration at nominal machine speed."""
        return self.seconds / self.slowdown


def calibrate(seconds: float, before: float, after: float) -> Calibrated:
    """Attach the reference times taken ``before`` and ``after`` a run."""
    return Calibrated(seconds=seconds, slowdown=(before + after) / 2 / REFERENCE_NOMINAL_S)


def calibrated(run):
    """``run()`` between two reference-loop timings: ``(result, Calibrated)``.

    ``run`` returns ``(result, seconds)``, the wall time of its own timed
    region, which leaves out its set-up and checks.
    """
    gc.collect()
    before = reference_seconds()
    result, seconds = run()
    after = reference_seconds()
    return result, calibrate(seconds, before, after)


class RssProbe:
    """Peak anonymous RSS over the samples taken at layer boundaries."""

    def __init__(self) -> None:
        self.peak_anon_mb = 0.0

    def sample(self) -> float:
        anon, _total = rss_mb()
        self.peak_anon_mb = max(self.peak_anon_mb, anon)
        return anon
