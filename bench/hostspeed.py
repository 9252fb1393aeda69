"""The speed of the host while a workload runs, and timings corrected for it.

The machine this benchmark is written for is a small virtual machine whose
speed moves in steps: a pinned pure-Python loop costs 1.00, 1.32 or 1.7 times
its best time for tens of seconds at a stretch, with nothing else running in
the guest and no steal time visible to it.  Every layer of the stack slows by
about that factor, so two runs of one commit taken minutes apart disagree by
a quarter, and no amount of medians over windows inside one run removes it.

So a thread of the workload's own process times a fixed loop of built-in
arithmetic every 40 ms, in *its own CPU time* (waiting for the interpreter
lock does not count), and each measurement window is corrected by the median
cost of that loop inside the window, relative to ``REFERENCE_S``: timings are
reported *as at the reference host speed*.  The loop uses nothing from
``repro``, so no change to the program can move it; it costs 2 % of the CPU,
the same on every commit.  The uncorrected values are printed beside the
corrected ones, and the factor itself is a per-layer metric.
"""

from __future__ import annotations

import threading
from time import perf_counter, process_time, sleep, thread_time

from .stats import median

#: CPU seconds of one pass of the loop on the machine the benchmark was
#: defined on, in its undisturbed state.  Only fixes the scale.
REFERENCE_S = 0.00078
PASS_ITERATIONS = 20_000
INTERVAL_S = 0.04


def _one_pass() -> int:
    total = 0
    for number in range(PASS_ITERATIONS):
        total += number * number % 7
    return total


class HostSpeed(threading.Thread):
    """Samples ``(when, CPU seconds of one pass)`` until stopped."""

    def __init__(self, process_start: float) -> None:
        super().__init__(name="bench-host-speed", daemon=True)
        self.process_start = process_start
        self.samples: list[tuple[float, float]] = []
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.is_set():
            before = thread_time()
            _one_pass()
            self.samples.append((perf_counter(), thread_time() - before))
            sleep(INTERVAL_S)

    def stop(self) -> None:
        self._stopped.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        """How slow the host was in ``[start, end)``: 1.0 is the reference speed.

        The median pass inside the interval over ``REFERENCE_S``; an interval
        too short to hold three samples borrows the nearest ones.
        """
        samples = self.samples[:]
        if not samples:
            raise RuntimeError("no host-speed sample was taken")
        inside = [cost for when, cost in samples if start <= when < end]
        if len(inside) < 3:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))[:3]
            inside = [cost for _when, cost in nearest]
        return median(inside) / REFERENCE_S

    def at_reference(self, start: float, end: float, cpu_s: float) -> float:
        """``end - start`` with its CPU-busy part taken at the reference speed.

        Waiting (timers, sleeps) does not depend on the host's speed, so only
        the ``cpu_s`` seconds of processor time inside the interval are scaled.
        """
        busy = min(cpu_s, end - start)
        return (end - start - busy) + busy / self.slowdown(start, end)

    def setup_s(self) -> float:
        """Process start until now, corrected: the ``setup_s`` of a workload."""
        return self.at_reference(self.process_start, perf_counter(), process_time())
