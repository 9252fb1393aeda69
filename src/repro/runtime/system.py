"""The component system: runtime container for a component hierarchy.

A :class:`ComponentSystem` owns the scheduler, the clock, the seeded random
source, and the root of the containment hierarchy.  ``bootstrap(Main)``
mirrors the paper's ``Kompics.bootstrap(Main.class)``: it instantiates the
root component and activates it.  For :mod:`repro.core.routing` it holds
the lock that serializes plan compilation with invalidation (a cache hit in
``trigger`` takes none) and the ``plans_compiled`` / ``plans_invalidated``
counters.

Fault policy (paper section 2.5): a Fault that escalates past the root runs
the *system fault handler*.  The default policy (``"halt"``) dumps the
exception to stderr and halts the system, exactly as the paper describes;
``"record"`` stores it for inspection and ``"raise"`` re-raises in place
(useful with the manual scheduler in tests).
"""

from __future__ import annotations

import random as random_module
import sys
import threading
from typing import TYPE_CHECKING, Callable, Optional

from ..core.component import Component, ComponentCore, ComponentDefinition, _execution
from ..core.dispatch import trigger
from ..core.errors import ConfigurationError
from ..core.lifecycle import Init, Start, Stop
from .clock import Clock, MonotonicClock
from .scheduler import ManualScheduler, Scheduler
from .work_stealing import WorkStealingScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..core.fault import Fault
    from .trace import Tracer

FAULT_POLICIES = ("halt", "record", "raise")


class ComponentSystem:
    """A running Kompics system: scheduler + clock + component hierarchy."""

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        seed: Optional[int] = None,
        clock: Optional[Clock] = None,
        fault_policy: str = "halt",
        name: str = "kompics",
    ) -> None:
        if fault_policy not in FAULT_POLICIES:
            raise ConfigurationError(
                f"fault_policy must be one of {FAULT_POLICIES}, got {fault_policy!r}"
            )
        self.name = name
        self.scheduler = scheduler if scheduler is not None else WorkStealingScheduler()
        self.scheduler.attach(self)
        self.clock = clock if clock is not None else MonotonicClock()
        self.random = random_module.Random(seed)
        self.seed = seed
        self.fault_policy = fault_policy
        self.roots: list[ComponentCore] = []
        self.components: set[ComponentCore] = set()
        self.unhandled_faults: list["Fault"] = []
        self.services: dict[str, object] = {}
        self.halted = False
        self._tracer: Optional["Tracer"] = None
        self._component_sequence = 0
        #: Serializes compile-and-publish with invalidation in
        #: :mod:`repro.core.routing`; taken only on ``trigger``'s miss path
        #: and by reconfiguration commands, and nothing is acquired under it.
        self._plan_lock = threading.Lock()
        #: Dispatch plans compiled, and cached plans dropped because a face
        #: they read changed (written under ``_plan_lock``): a reconfiguration
        #: moves them by what it touches, not by the size of the system.
        self.plans_compiled = 0
        self.plans_invalidated = 0
        self._active = 0
        self._quiet = threading.Condition()
        #: The lock strategy of the component state machine, chosen once
        #: from the scheduler type: under a ManualScheduler one thread makes
        #: every transition, so cores take no lock (None) and the scheduler
        #: bridge skips the condition lock; otherwise each core makes a lock.
        self._lock_strategy: Optional[Callable[[], object]] = (
            None if isinstance(self.scheduler, ManualScheduler) else threading.Lock
        )

    # -------------------------------------------------------------- bootstrap

    def bootstrap(
        self,
        main_definition: type[ComponentDefinition],
        *args: object,
        init: Optional[Init] = None,
        name: Optional[str] = None,
        **kwargs: object,
    ) -> Component:
        """Create and start a root component (the paper's Main)."""
        self.scheduler.start()
        root = ComponentCore(
            self, main_definition, args, kwargs, parent=None, name=name
        )
        self.roots.append(root)
        if init is not None:
            trigger(init, root.control_port.outside)
        trigger(Start(), root.control_port.outside)
        return root.component

    @property
    def tracer(self) -> Optional["Tracer"]:
        """This system's :class:`~repro.runtime.trace.Tracer`, or None;
        setting one attaches it to the observer seam, None detaches it."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Optional["Tracer"]) -> None:
        if self._tracer is not None:
            self._tracer.unbind()
            self._tracer = None
        if tracer is not None:
            tracer.bind(self)
            self._tracer = tracer

    def shutdown(self, wait: bool = True) -> None:
        """Stop all roots, destroy the hierarchy, stop the scheduler, and
        detach the tracer."""
        for root in tuple(self.roots):
            trigger(Stop(), root.control_port.outside)
        self.await_quiescence(timeout=2.0)
        for root in tuple(self.roots):
            root.destroy()
        self.roots.clear()
        for service in self.services.values():
            close = getattr(service, "close", None)
            if callable(close):
                close()
        self.scheduler.shutdown(wait=wait)
        self.tracer = None

    # -------------------------------------------------------------- services

    def register_service(self, key: str, service: object) -> None:
        """Register a shared runtime service (timer wheel, network router...)."""
        self.services[key] = service

    def service(self, key: str) -> object:
        try:
            return self.services[key]
        except KeyError:
            raise ConfigurationError(f"no service {key!r} registered") from None

    # ------------------------------------------------------- scheduler bridge

    def component_ready(self, component: ComponentCore) -> None:
        if self._lock_strategy is None:
            self._active += 1
            self.scheduler.schedule(component)
            return
        with self._quiet:
            self._active += 1
        # A thread inside deliver_and_run (an I/O loop) runs it itself.
        claimed = _execution.claimed
        if claimed is not None:
            claimed.append(component)
        else:
            self.scheduler.schedule(component)

    def component_idle(self, component: ComponentCore) -> None:
        if self._lock_strategy is None:
            self._active -= 1
            return
        with self._quiet:
            self._active -= 1
            if self._active <= 0:
                self._quiet.notify_all()

    @property
    def active_components(self) -> int:
        """Components currently ready or busy."""
        return self._active

    def await_quiescence(self, timeout: Optional[float] = None) -> bool:
        """Block until no component is ready or busy (momentarily).

        Quiescence of components does not imply quiescence of external
        sources (timers, sockets); callers coordinating with those should
        use protocol-level acknowledgements instead.
        """
        if isinstance(self.scheduler, ManualScheduler):
            self.scheduler.run_to_quiescence()
            return self._active == 0
        with self._quiet:
            return self._quiet.wait_for(lambda: self._active == 0, timeout=timeout)

    # ------------------------------------------------------------ bookkeeping

    def next_component_id(self) -> int:
        """Per-system component ids keep auto-generated names (and thus
        execution traces) identical across repeated runs."""
        self._component_sequence += 1
        return self._component_sequence

    def register_component(self, component: ComponentCore) -> None:
        self.components.add(component)

    def unregister_component(self, component: ComponentCore) -> None:
        self.components.discard(component)

    # ------------------------------------------------------------------ fault

    def handle_root_fault(self, fault: "Fault") -> None:
        """The system fault handler (paper: dump to stderr and halt)."""
        self.unhandled_faults.append(fault)
        if self.fault_policy == "raise":
            raise fault.cause
        if self.fault_policy == "halt":
            sys.stderr.write(
                f"[{self.name}] unhandled fault in {fault.source.name}: "
                f"{fault.trace()}\n"
            )
            self.halted = True
            self.scheduler.shutdown(wait=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ComponentSystem {self.name!r} components={len(self.components)} "
            f"active={self._active}>"
        )
