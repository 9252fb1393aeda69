"""The deterministic simulation runtime (paper section 3, "Deterministic
Simulation Mode").

A :class:`Simulation` wraps a :class:`~repro.runtime.system.ComponentSystem`
whose clock is virtual, whose scheduler is the deterministic FIFO
:class:`~repro.runtime.scheduler.ManualScheduler`, and whose time-dependent
services (timers, the network emulator) post to one discrete-event queue.

The simulation loop alternates two phases, exactly like the paper's
simulation scheduler: execute ready components until quiescence, then
advance virtual time to the next queued event and dispatch it.  Given the
same seed and the same component code, every run is identical.

The loop pops every entry due at the next timestamp in one queue operation
and dispatches them back-to-back, draining the scheduler after each entry
(see ``docs/internals.md``, "Simulation hot path").  A ``max_dispatches``
budget or a :meth:`stop` that lands inside such a batch parks the
undispatched tail; the next :meth:`Simulation.run` resumes it before it
touches the queue.  With a schedule-explorer ``picker`` installed on the
queue, every live entry at the current timestamp — including those a
dispatch has just scheduled there — is a candidate for the next pick.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Optional

from ..core import observe
from ..core.errors import SimulationError
from ..runtime.clock import VirtualClock
from ..runtime.scheduler import ManualScheduler
from ..runtime.system import ComponentSystem
from .event_queue import make_event_queue

QUEUE_SERVICE = "simulation_event_queue"


class Simulation:
    """A deterministic, virtual-time component system."""

    def __init__(
        self,
        seed: int = 0,
        fault_policy: str = "raise",
        name: str = "simulation",
    ) -> None:
        self.clock = VirtualClock()
        self.scheduler = ManualScheduler()
        self.queue = make_event_queue()
        self.system = ComponentSystem(
            scheduler=self.scheduler,
            clock=self.clock,
            seed=seed,
            fault_policy=fault_policy,
            name=name,
        )
        self.system.register_service(QUEUE_SERVICE, self.queue)
        self._stop_requested = False
        self.events_dispatched = 0
        # Same-timestamp entries not yet dispatched when stop() or the
        # budget interrupted a batch; the next run() resumes them before
        # touching the queue.
        self._pending_batch: list = []

    # ------------------------------------------------------------- scheduling

    def now(self) -> float:
        return self.clock.now()

    def schedule(self, delay: float, action: Callable[[], None]):
        """Schedule an action ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.queue.schedule(self.clock.now() + delay, action)

    def stop(self) -> None:
        """Request the run loop to stop after the current dispatch."""
        self._stop_requested = True

    # -------------------------------------------------------------- main loop

    def run(
        self,
        until: Optional[float] = None,
        max_dispatches: Optional[int] = None,
    ) -> str:
        """Run the simulation; returns why it stopped.

        ``"quiescent"``  — no ready components and no future events;
        ``"horizon"``    — the next event lies beyond ``until``;
        ``"stopped"``    — :meth:`stop` was called;
        ``"budget"``     — ``events_dispatched`` (cumulative across runs)
        has reached ``max_dispatches``.
        """
        self._stop_requested = False
        queue = self.queue
        clock = self.clock
        drain = self.scheduler.drain
        budget = inf if max_dispatches is None else max_dispatches
        drain()
        if self._stop_requested:
            return "stopped"
        batch = self._pending_batch
        self._pending_batch = []
        index = 0
        started = dispatched = self.events_dispatched
        try:
            while True:
                picker = queue.picker
                size = len(batch)
                while index < size:
                    if dispatched >= budget:
                        self._pending_batch = batch[index:]
                        return "budget"
                    if picker is None:
                        entry = batch[index]
                        index += 1
                        if entry.cancelled:
                            continue
                    else:
                        # Schedule exploration: the candidates are all live
                        # entries at this timestamp, so absorb the bucket a
                        # dispatch may have scheduled here meanwhile.  The
                        # pick leaves the batch, so ``index`` stays 0.
                        batch = [e for e in batch if not e.cancelled]
                        more = queue.pop_batch(clock.now())
                        if more is not None and more[1] is not None:
                            batch += more[1]
                        if not batch:
                            break
                        entry = batch.pop(picker(batch) if len(batch) > 1 else 0)
                        index, size = 0, len(batch)
                    dispatched += 1
                    obs = observe.observer
                    if obs is None:
                        entry.action()
                    else:
                        obs.fire_begin(entry)
                        try:
                            entry.action()
                        finally:
                            obs.fire_end(entry)
                    drain()
                    if self._stop_requested:
                        self._pending_batch = batch[index:]
                        return "stopped"
                if dispatched >= budget:
                    return "budget"
                popped = queue.pop_batch(until)
                if popped is None:
                    return "quiescent"
                time, batch = popped
                if batch is None:
                    clock.advance_to(until)
                    return "horizon"
                index = 0
                clock.advance_to(time)
        finally:
            self.events_dispatched = dispatched
            queue.fired_total += dispatched - started

    # -------------------------------------------------------------- profiling

    def profile(self):
        """Start collecting a hot-path profile; returns the profiler.

        Usage::

            with sim.profile() as prof:
                sim.run(until=...)
            print(prof.report(top=10))

        See :class:`repro.simulation.profile.SimulationProfiler`.
        """
        from .profile import SimulationProfiler

        return SimulationProfiler(self)

    # ------------------------------------------------------------ convenience

    def bootstrap(self, definition, *args, **kwargs):
        return self.system.bootstrap(definition, *args, **kwargs)

    def shutdown(self) -> None:
        self.system.shutdown()


def is_simulated(system: ComponentSystem) -> bool:
    """True when ``system`` is the component system of a :class:`Simulation`."""
    return QUEUE_SERVICE in system.services


def queue_of(system: ComponentSystem):
    """The simulation event queue of ``system`` (simulation mode only)."""
    if not is_simulated(system):
        raise SimulationError(
            "this ComponentSystem is not running in simulation mode "
            f"(no {QUEUE_SERVICE!r} service)"
        )
    return system.services[QUEUE_SERVICE]
