"""Percentiles, memory and host metadata shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence

#: The percentile every latency metric reports, and the least number of
#: samples every workload is sized to leave beyond it (the tests check the
#: sizes; each run prints its count).
TAIL_PERCENTILE = 90.0
MIN_BEYOND_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile.

    A weighted mean of every order statistic, with the weights of a
    Beta((n+1)p, (n+1)(1-p)) distribution over the ranks.  A single order
    statistic jumps whenever noise reorders the samples on either side of a
    sparse stretch of the distribution (the map-corpus median falls in a
    12-25 ms gap between instances); this estimate moves smoothly, and
    measured at about a third of nearest rank's run-to-run spread there.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile {q} outside (0, 100)")
    import numpy
    from scipy.special import betainc

    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    p = q / 100.0
    edges = betainc((n + 1) * p, (n + 1) * (1.0 - p), numpy.arange(n + 1) / n)
    return float(numpy.diff(edges) @ ordered)


def beyond(count: int, q: float) -> int:
    """Samples of ``count`` past the rank of the ``q``-th percentile.

    What a workload's sample count guarantees beyond its tail percentile;
    each run also counts the samples above the value it reports.
    """
    return count - max(1, math.ceil(q / 100.0 * count))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def latency_summary(samples_s: Sequence[float]) -> Dict[str, float]:
    """p50 and p90 in milliseconds, with the sample counts behind them."""
    p90 = percentile(samples_s, TAIL_PERCENTILE)
    return {
        "p50_ms": percentile(samples_s, 50.0) * 1000.0,
        "p90_ms": p90 * 1000.0,
        "samples": len(samples_s),
        "beyond_p90": sum(1 for value in samples_s if value > p90),
    }


def percentile_or_zero(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(extra_kb: Iterable[int] = ()) -> float:
    """Largest peak RSS of this process, its reaped children and ``extra_kb``.

    ``ru_maxrss`` is in KiB on Linux; for children it is the largest single
    descendant that has been waited for, not a sum.
    """
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        *extra_kb,
    ]
    return max(peaks) / 1024.0


def process_peak_kb(pid: int) -> Optional[int]:
    """``VmHWM`` (peak resident set) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc`` task listing)."""
    children: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as f:
                children += [int(p) for p in f.read().split()]
        except (OSError, ValueError):
            continue
    return children


def host_metadata() -> Dict[str, object]:
    """Interpreter, library versions and CPU of the measuring host."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }
