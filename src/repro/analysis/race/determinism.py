"""Determinism checking: run a scenario twice, diff the traces (R002).

The paper's claim (section 3) is that simulation mode is *fully
deterministic*: same seed, same code ⇒ same execution.  The checker makes
that claim testable for any scenario: run it N times in fresh
:class:`~repro.simulation.core.Simulation` instances with identical
seeds, capture a :class:`~repro.runtime.trace.Tracer` trace of every
handler execution, and compare stable fingerprints byte-for-byte.

When traces differ, the diff is interpreted modulo happens-before
commutativity: two runs that execute the same per-component event
sequences at the same virtual times merely interleaved concurrent
handlers differently, which the model permits.  Anything else is rule
**R002**, reported with the first diverging event and a root-cause
classification:

- ``wall-clock read`` — same logical events, diverging virtual times
  (some delay was derived from real time);
- ``iteration-order`` — same event multiset, different per-component
  order (dict/set iteration feeding a fan-out);
- ``unseeded randomness`` — the runs executed different event sets
  (an RNG or data-dependent branch outside the seeded simulation).

A scenario is a callable ``scenario(sim) -> check | None`` that builds
components inside the provided simulation; the optional returned
``check()`` callable runs after the simulation and may raise to signal
an application-level failure (used by the schedule explorer).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ...runtime.trace import TraceEntry, Tracer
from ...simulation.core import Simulation
from ..findings import Finding

Scenario = Callable[[Simulation], Optional[Callable[[], None]]]


def _run_once(
    scenario: Scenario,
    seed: int,
    until: Optional[float],
    max_dispatches: Optional[int],
) -> tuple[Tracer, str]:
    sim = Simulation(seed=seed, fault_policy="raise")
    tracer = Tracer(capacity=1_000_000)
    sim.system.tracer = tracer
    try:
        check = scenario(sim)
        status = sim.run(until=until, max_dispatches=max_dispatches)
        if check is not None:
            check()
    finally:
        sim.system.tracer = None
    return tracer, status


def _per_component(
    entries: Sequence[TraceEntry], with_time: bool
) -> dict[str, tuple]:
    projections: dict[str, list] = {}
    for entry in entries:
        item = (entry.time, entry.event_type) if with_time else entry.event_type
        projections.setdefault(entry.component, []).append(item)
    return {component: tuple(items) for component, items in projections.items()}


def compare_traces(
    first: Sequence[TraceEntry], second: Sequence[TraceEntry]
) -> dict:
    """Diff two traces; returns a dict with keys ``identical``,
    ``hb_equivalent``, ``index``, ``left``, ``right``, ``cause``."""
    a, b = list(first), list(second)
    if a == b:
        return {
            "identical": True,
            "hb_equivalent": True,
            "index": None,
            "left": None,
            "right": None,
            "cause": None,
        }
    index = 0
    for index in range(max(len(a), len(b))):  # noqa: B007 - first mismatch
        if index >= len(a) or index >= len(b) or a[index] != b[index]:
            break
    left = a[index] if index < len(a) else None
    right = b[index] if index < len(b) else None

    # Same per-component (time, event) sequences: only the interleaving of
    # concurrent handlers differs, which happens-before permits.
    if _per_component(a, True) == _per_component(b, True):
        return {
            "identical": False,
            "hb_equivalent": True,
            "index": index,
            "left": left,
            "right": right,
            "cause": None,
        }

    if _per_component(a, False) == _per_component(b, False):
        cause = (
            "wall-clock read: both runs execute the same logical events but "
            "their virtual times diverge — some delay or timestamp was "
            "derived from real time instead of the simulation clock"
        )
    elif Counter((e.component, e.event_type) for e in a) == Counter(
        (e.component, e.event_type) for e in b
    ):
        cause = (
            "iteration-order nondeterminism: the same events execute in a "
            "different per-component order — typically a dict/set iteration "
            "feeding a fan-out or subscription order"
        )
    else:
        cause = (
            "unseeded randomness or data-dependent branching: the runs "
            "executed different event sets — an RNG outside the simulation "
            "seed, or branching on ids/hashes/real time"
        )
    return {
        "identical": False,
        "hb_equivalent": False,
        "index": index,
        "left": left,
        "right": right,
        "cause": cause,
    }


@dataclass
class DeterminismReport:
    """Outcome of :func:`check_determinism`."""

    deterministic: bool
    hb_equivalent: bool
    fingerprints: list[str]
    statuses: list[str]
    entry_counts: list[int]
    divergence: Optional[dict]
    cause: Optional[str]
    findings: list[Finding] = field(default_factory=list)

    def format(self) -> str:
        lines = []
        for run, (fp, status, count) in enumerate(
            zip(self.fingerprints, self.statuses, self.entry_counts)
        ):
            lines.append(f"run {run}: fingerprint={fp} status={status} entries={count}")
        if self.deterministic:
            lines.append("deterministic: traces are byte-identical")
        elif self.hb_equivalent:
            lines.append(
                "traces differ but are happens-before equivalent "
                "(concurrent handlers interleaved differently)"
            )
        else:
            divergence = self.divergence or {}
            lines.append(f"NOT deterministic: first divergence at entry {divergence.get('index')}")
            lines.append(f"  run 0: {divergence.get('left')}")
            lines.append(f"  run 1: {divergence.get('right')}")
            lines.append(f"  cause: {self.cause}")
        return "\n".join(lines)


def check_determinism(
    scenario: Scenario,
    runs: int = 2,
    seed: int = 0,
    until: Optional[float] = None,
    max_dispatches: Optional[int] = None,
) -> DeterminismReport:
    """Run ``scenario`` ``runs`` times with one seed and diff the traces."""
    if runs < 2:
        raise ValueError("need at least two runs to compare")
    tracers: list[Tracer] = []
    statuses: list[str] = []
    for _ in range(runs):
        tracer, status = _run_once(scenario, seed, until, max_dispatches)
        tracers.append(tracer)
        statuses.append(status)

    fingerprints = [tracer.fingerprint() for tracer in tracers]
    reference = list(tracers[0].entries)
    divergence: Optional[dict] = None
    cause: Optional[str] = None
    hb_equivalent = True
    for tracer in tracers[1:]:
        diff = compare_traces(reference, list(tracer.entries))
        if diff["identical"]:
            continue
        if divergence is None:
            divergence = {
                "index": diff["index"],
                "left": str(diff["left"]),
                "right": str(diff["right"]),
            }
        if not diff["hb_equivalent"]:
            hb_equivalent = False
            cause = diff["cause"]
            break

    deterministic = len(set(fingerprints)) == 1
    findings: list[Finding] = []
    if not deterministic and not hb_equivalent:
        findings.append(
            Finding(
                rule="R002",
                message=(
                    f"scenario is not deterministic under a fixed seed: first "
                    f"divergence at trace entry {divergence['index'] if divergence else '?'} "
                    f"(run 0: {divergence['left'] if divergence else '?'} | "
                    f"run 1: {divergence['right'] if divergence else '?'}); {cause}"
                ),
                obj="determinism-check",
                extra={
                    "fingerprints": fingerprints,
                    "divergence": divergence,
                    "cause": cause,
                },
            )
        )
    return DeterminismReport(
        deterministic=deterministic,
        hb_equivalent=hb_equivalent,
        fingerprints=fingerprints,
        statuses=statuses,
        entry_counts=[len(t.entries) for t in tracers],
        divergence=divergence,
        cause=cause,
        findings=findings,
    )
