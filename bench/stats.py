"""Small statistics and process-accounting helpers shared by every workload."""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Callable, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(len(ordered) * fraction))])


def spread(values: Sequence[float]) -> float:
    """How far runs of one thing disagree, as a share of their median.

    From four values on, the inter-quartile distance.  Of three, twice the
    distance from the median to its *nearer* neighbour: like the median
    itself, that ignores one disturbed process out of three.  Of two, their
    distance.  A single value has no spread that could be known, which reads
    as infinite, so that nothing is resolved on the strength of one process.
    """
    if len(values) < 2:
        return float("inf")
    middle = abs(median(values))
    if not middle:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 2:
        return (ordered[1] - ordered[0]) / middle
    if len(ordered) == 3:
        return 2 * min(ordered[1] - ordered[0], ordered[2] - ordered[1]) / middle
    q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    return (q3 - q1) / middle


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_kb() -> float:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1024.0


def pin_to_one_cpu() -> str:
    """Pin this process to its last allowed CPU; returns a note for the output.

    All components share one GIL, so a second core adds no Python
    throughput, only cross-CPU wake-ups; on the 2-vCPU box those flip a
    whole run between two regimes (bench/README.md, "Machine assumptions").
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError) as exc:
        return f"not pinned ({exc})"
    return f"pinned to cpu {cpu}"


def wait_until(predicate: Callable[[], bool], timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out after {timeout:.0f}s waiting for {what}")
        time.sleep(0.005)


def sleep_until(deadline: float) -> None:
    """Sleep until ``time.perf_counter()`` reaches ``deadline``."""
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(remaining)


def measure_windows(
    count: int,
    length: float,
    counters: Callable[[], dict[str, float]],
    during: Callable[[], None] | None = None,
) -> list[dict[str, float]]:
    """Take ``count`` back-to-back windows of ``length`` seconds.

    Each window is the delta of every counter ``counters()`` returns, plus
    ``wall`` and ``cpu`` (``time.process_time`` of the whole process) and the
    window's ``start``/``end`` on the ``perf_counter`` clock.  ``during`` is
    called about every 20 ms while waiting (queue-depth sampling).
    """
    windows = []
    start = time.perf_counter()
    before = counters()
    before_wall, before_cpu = start, time.process_time()
    for index in range(count):
        deadline = start + (index + 1) * length
        if during is None:
            sleep_until(deadline)
        else:
            while time.perf_counter() < deadline:
                during()
                time.sleep(min(0.02, max(0.0, deadline - time.perf_counter())))
        now_wall, now_cpu = time.perf_counter(), time.process_time()
        after = counters()
        window = {key: after[key] - before[key] for key in after}
        window.update(
            wall=now_wall - before_wall, cpu=now_cpu - before_cpu,
            start=before_wall, end=now_wall,
        )
        windows.append(window)
        before, before_wall, before_cpu = after, now_wall, now_cpu
    return windows

