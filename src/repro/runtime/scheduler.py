"""The scheduler interface: component behaviour decoupled from execution.

The paper's key architectural decision (section 3): the component model
admits *pluggable* schedulers, so the same unchanged component code runs
under parallel multi-core execution, deterministic simulation, or manual
stepping in tests.  Schedulers receive components that transitioned from
idle to ready and must eventually call
:meth:`~repro.core.component.ComponentCore.execute` on them, requeueing
while the component stays ready.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.component import ComponentCore
    from .system import ComponentSystem


class Scheduler(abc.ABC):
    """Executes ready components; one event per component per slot by default."""

    def __init__(self, throughput: int = 1) -> None:
        #: events executed per component per scheduling slot (paper: 1).
        self.throughput = throughput
        self.system: "ComponentSystem | None" = None

    def attach(self, system: "ComponentSystem") -> None:
        """Bind this scheduler to a component system (called once)."""
        self.system = system

    @abc.abstractmethod
    def schedule(self, component: "ComponentCore") -> None:
        """A component transitioned idle -> ready; execute it eventually."""

    def start(self) -> None:
        """Begin executing (spawn workers, if any)."""

    def shutdown(self, wait: bool = True) -> None:
        """Stop executing; drop components still queued."""


class ManualScheduler(Scheduler):
    """Deterministic single-threaded scheduler driven by explicit calls.

    Ready components are executed in FIFO order by
    :meth:`run_to_quiescence`, giving fully reproducible executions.  The
    deterministic simulation runtime builds on this scheduler; unit tests
    use it to step systems without threads.
    """

    def __init__(self, throughput: int = 1) -> None:
        super().__init__(throughput)
        from collections import deque

        self._ready = deque()
        #: Optional ready-component chooser (schedule exploration): called
        #: with the sequence of ready components, returns the index of the
        #: one to execute next.  None (the default) keeps FIFO order.
        self.picker = None

    def schedule(self, component: "ComponentCore") -> None:
        self._ready.append(component)

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    def step(self) -> bool:
        """Execute one scheduling slot; returns False when nothing is ready."""
        if not self._ready:
            return False
        picker = self.picker
        if picker is None or len(self._ready) == 1:
            component = self._ready.popleft()
        else:
            index = picker(self._ready)
            component = self._ready[index]
            del self._ready[index]
        if component.execute(self.throughput):
            self._ready.append(component)
        return True

    def run_to_quiescence(self, max_slots: int | None = None) -> int:
        """Run until no component is ready; returns slots executed."""
        slots = 0
        while self._ready and (max_slots is None or slots < max_slots):
            self.step()
            slots += 1
        return slots

    def drain(self) -> int:
        """Quiescence fast path: FIFO, throughput 1, no picker, inlined.

        Executes exactly the slots :meth:`run_to_quiescence` would (it
        falls back to it when a picker or a non-default throughput is
        installed) through ``ComponentCore.execute``, which takes no lock
        under this scheduler — the simulation loop calls this once per
        timed dispatch, so the slot machinery is the hottest code in the
        simulator.
        """
        if self.picker is not None or self.throughput != 1:
            return self.run_to_quiescence()
        ready = self._ready
        slots = 0
        while ready:
            component = ready.popleft()
            if component.execute():
                ready.append(component)
            slots += 1
        return slots
