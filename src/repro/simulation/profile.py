"""Hot-path profiling for the deterministic simulator.

``Simulation.profile()`` answers "where do simulated seconds go?" without
an external profiler: it attaches to the :mod:`repro.core.observe` seam
(beside race tracking or the sanitizer, if they are on) and attributes
wall time per component *definition* and per *event type*, plus the share
spent inside the timed dispatch machinery itself.  Zero cost when not
attached — the seam's slot is None on the default path.

Usage::

    sim = Simulation(seed=7)
    ...
    with sim.profile() as prof:
        sim.run(until=30.0)
    print(prof.report(top=10))
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Optional

from ..core import observe

if TYPE_CHECKING:  # pragma: no cover
    from .core import Simulation


class SimulationProfiler(observe.Observer):
    """Collects per-definition / per-event-type execution time.

    Attaches itself to the observer seam on construction; ``uninstall()``
    (or leaving the ``with`` block) detaches it.
    """

    def __init__(self, simulation: "Simulation") -> None:
        self.simulation = simulation
        self.by_definition: dict[str, list] = {}  # name -> [seconds, count]
        self.by_event_type: dict[str, list] = {}
        self._t0 = 0.0
        self._wall_start = perf_counter()
        self._wall: Optional[float] = None  # set when the profiler detaches
        self._events_start = simulation.events_dispatched
        system = simulation.system
        self._plans_start = (system.plans_compiled, system.plans_invalidated)
        observe.attach(self)

    # ---------------------------------------------------- observer protocol

    def begin(self, core, item) -> None:
        self._t0 = perf_counter()

    def end(self, core, item) -> None:
        elapsed = perf_counter() - self._t0
        definition_name = type(core.definition).__name__
        cell = self.by_definition.get(definition_name)
        if cell is None:
            cell = self.by_definition[definition_name] = [0.0, 0]
        cell[0] += elapsed
        cell[1] += 1
        event_name = type(item.event).__name__
        cell = self.by_event_type.get(event_name)
        if cell is None:
            cell = self.by_event_type[event_name] = [0.0, 0]
        cell[0] += elapsed
        cell[1] += 1

    # -------------------------------------------------------------- control

    def uninstall(self) -> None:
        if self._wall is None:
            self._wall = perf_counter() - self._wall_start
            observe.detach(self)

    def __enter__(self) -> "SimulationProfiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------- reporting

    @property
    def wall_seconds(self) -> float:
        return self._wall if self._wall is not None else perf_counter() - self._wall_start

    @property
    def handler_seconds(self) -> float:
        return sum(cell[0] for cell in self.by_definition.values())

    def top_definitions(self, top: int = 10) -> list[tuple[str, float, int]]:
        return self._top(self.by_definition, top)

    def top_event_types(self, top: int = 10) -> list[tuple[str, float, int]]:
        return self._top(self.by_event_type, top)

    @staticmethod
    def _top(table: dict[str, list], top: int) -> list[tuple[str, float, int]]:
        ranked = sorted(table.items(), key=lambda kv: kv[1][0], reverse=True)
        return [(name, cell[0], cell[1]) for name, cell in ranked[:top]]

    def report(self, top: int = 10) -> str:
        """A top-k breakdown: handler time per definition and event type.

        The residual (wall minus handler time) is the simulation driver
        itself — queue operations, clock advances, scheduler bookkeeping —
        which is what the wheel-indexed queue and the batched loop keep small.
        """
        wall = self.wall_seconds
        handlers = self.handler_seconds
        events = self.simulation.events_dispatched - self._events_start
        system = self.simulation.system
        compiled = system.plans_compiled - self._plans_start[0]
        invalidated = system.plans_invalidated - self._plans_start[1]
        lines = [
            f"simulation profile: {wall:.3f}s wall, "
            f"{handlers:.3f}s in handlers ({_share(handlers, wall)}), "
            f"{events} timed events",
            f"dispatch plans: {compiled} compiled, {invalidated} invalidated",
            "",
            f"  {'component definition':<32} {'seconds':>9} {'share':>7} {'execs':>9}",
        ]
        for name, seconds, count in self.top_definitions(top):
            lines.append(
                f"  {name:<32} {seconds:>9.3f} {_share(seconds, wall):>7} {count:>9}"
            )
        lines.append("")
        lines.append(f"  {'event type':<32} {'seconds':>9} {'share':>7} {'execs':>9}")
        for name, seconds, count in self.top_event_types(top):
            lines.append(
                f"  {name:<32} {seconds:>9.3f} {_share(seconds, wall):>7} {count:>9}"
            )
        lines.append("")
        lines.append(
            f"  {'driver residual (queue/clock/scheduler)':<32} "
            f"{max(0.0, wall - handlers):>9.3f} {_share(max(0.0, wall - handlers), wall):>7}"
        )
        return "\n".join(lines)


def _share(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole > 0 else "-"
