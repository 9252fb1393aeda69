"""What one workload run produces, and how it is printed.

The last line of standard output is the contract's JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  The line before it,
prefixed ``DETAIL``, carries what the contract has no room for: the
per-window values behind each end-to-end metric, sample counts, exact
counters, and the reported-but-ungated metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .hostspeed import HostSpeed
from .stats import median, peak_rss_mb, percentile

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


#: Measured like the end-to-end timings but not gated: the 95th percentile of
#: a window does not repeat within a tenth between two runs of one commit on
#: this host (bench/README.md), so it is reported beside them instead.
UNGATED = {"op_p95_ms"}


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def section_for(trace: int) -> str:
    return "per_layer" if trace else "end_to_end"


@dataclass
class Outcome:
    workload: str
    seed: int
    trace: int
    metrics: dict[str, float] = field(default_factory=dict)
    #: process start -> ready to measure, corrected for the host's speed.
    setup_s: float = 0.0
    #: name -> (value, unit): printed and stored, never gated.
    reported: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: end-to-end metric -> its value in each measurement window.
    windows: dict[str, list[float]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    exact: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: traced runs: what goes to bench/results/trace-<workload>.json.
    trace_document: dict | None = None

    def set_end_to_end(self, host: HostSpeed, windows: list[dict], latency_slices: list[tuple]) -> None:
        """Fill the timing metrics from the measurement windows.

        ``windows`` carry ``ops``, ``wall``, ``cpu``, ``start`` and ``end``;
        ``latency_slices`` are ``(start, end, [latency ms, ...])``.  Each
        window is corrected for the host's speed while it ran
        (``bench/hostspeed.py``), and every figure is the median over the
        windows.  That holds for the percentiles too (taken within each
        slice): a disturbance that covers one slice of six would own the 95th
        percentile of the pooled samples, and leaves this one alone.
        """
        slow = [host.slowdown(w["start"], w["end"]) for w in windows]
        slice_slow = [host.slowdown(start, end) for start, end, _part in latency_slices]
        # name -> (unit, uncorrected value per window, slowdown per window, a slow host raises it)
        timings = {
            "ops_per_s": ("op/s", [w["ops"] / w["wall"] for w in windows], slow, False),
            "cpu_us_per_op": ("us", [1e6 * w["cpu"] / max(1, w["ops"]) for w in windows], slow, True),
            "op_p50_ms": ("ms", [median(part) for _s, _e, part in latency_slices], slice_slow, True),
            "op_p95_ms": ("ms", [percentile(part, 0.95) for _s, _e, part in latency_slices], slice_slow, True),
        }
        for name, (unit, uncorrected, factors, raised) in timings.items():
            self.windows[name] = [
                value / factor if raised else value * factor
                for value, factor in zip(uncorrected, factors)
            ]
            if name in UNGATED:
                self.reported[name] = (median(self.windows[name]), unit)
            else:
                self.metrics[name] = median(self.windows[name])
            self.reported[f"uncorrected.{name}"] = (median(uncorrected), unit)
        self.reported["host_slowdown"] = (median(slow + slice_slow), "ratio")
        self.metrics["setup_s"] = self.setup_s
        self.metrics["peak_rss_mb"] = peak_rss_mb()
        self.samples["latency, all slices"] = sum(len(part) for _s, _e, part in latency_slices)

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems


def emit(outcome: Outcome, spec: dict) -> dict:
    """Print every metric by name with its unit; return the contract object."""
    section = spec[section_for(outcome.trace)]
    names = [entry["name"] for entry in section]
    missing = [name for name in names if name not in outcome.metrics]
    extra = sorted(set(outcome.metrics) - set(names))
    idle = missing if outcome.trace else []
    if outcome.trace:
        # A layer that does no work in this workload reads 0.
        outcome.metrics.update(dict.fromkeys(idle, 0.0))
        missing = []
    outcome.check(not missing, f"metrics not measured: {missing}")
    outcome.check(not extra, f"metrics not in BENCHMARK.json: {extra}")

    print(f"# workload {outcome.workload} seed {outcome.seed} trace {outcome.trace}")
    for note in outcome.notes:
        print(f"# {note}")
    for entry in section:
        name = entry["name"]
        if name in outcome.metrics and name not in idle:
            print(f"{name:<46}{outcome.metrics[name]:>16.4f} {entry['unit']}")
    if idle:
        print(f"# {len(idle)} per-layer metrics read 0: their layers do no work in this workload")
    for name, (value, unit) in outcome.reported.items():
        print(f"{name:<46}{value:>16.4f} {unit}  (reported, not gated)")
    for name, count in outcome.samples.items():
        print(f"# samples {name}: {count}")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")

    detail = {
        "workload": outcome.workload,
        "seed": outcome.seed,
        "trace": outcome.trace,
        "windows": outcome.windows,
        "samples": outcome.samples,
        "exact": outcome.exact,
        "reported": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.reported.items()
        },
        "problems": outcome.problems,
    }
    print("DETAIL " + json.dumps(detail))
    units = {entry["name"]: entry["unit"] for entry in section}
    contract = {
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in names
            if name in outcome.metrics
        },
    }
    print(json.dumps(contract), flush=True)
    return contract
