"""Happens-before tracking: vector clocks over handler executions.

The tracked partial order is the one the component model actually
guarantees, not the accidental serialization of any particular scheduler:

===========================  ===================================================
edge                         why it is real
===========================  ===================================================
program order                one component's handler executions are mutually
                             exclusive and FIFO, so they are totally ordered
trigger → delivery           an event's handlers run after the trigger that
                             published it (the stamp travels on the event)
schedule → timed dispatch    a queue entry fires after the execution that
                             scheduled it (timer expiry, emulated delivery)
channel resume → delivery    events queued while a channel was held are
                             delivered because someone called ``resume()``
channel plug → delivery      events queued toward an unplugged end flow
                             because someone re-plugged the channel
lifecycle Start/Stop         carried by the trigger edge: a parent's (or the
                             bootstrapper's) Start precedes the child handler
reconfig state transfer      everything the replaced component did precedes
                             everything its successor does
===========================  ===================================================

Deliberately *absent*: edges between consecutive timed dispatches (the
simulation loop serializes them, the multi-core runtime would not) and
between different components' executions that merely happened to run
back-to-back on one worker.  Two epochs with concurrent clocks could have
run in either order on the paper's work-stealing runtime — so conflicting
accesses from such epochs are races even when observed under the
deterministic simulator.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import TYPE_CHECKING, Iterable, Optional

from .vector_clock import VectorClock

if TYPE_CHECKING:  # pragma: no cover
    from ...core.component import ComponentCore, WorkItem
    from ...simulation.event_queue import ScheduledEntry


class _Context:
    """One totally-ordered strand of execution (a clock index owner)."""

    __slots__ = ("index", "name", "kind", "clock")

    def __init__(self, index: int, name: str, kind: str) -> None:
        self.index = index
        self.name = name
        self.kind = kind  # "component" | "thread" | "entry"
        self.clock = VectorClock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ctx {self.kind} {self.name} #{self.index}>"


class Epoch:
    """One handler execution (or timed dispatch) and its clock snapshot."""

    __slots__ = ("number", "context_index", "label", "event_type", "clock")

    def __init__(
        self,
        number: int,
        context_index: int,
        label: str,
        event_type: str,
        clock: VectorClock,
    ) -> None:
        self.number = number
        self.context_index = context_index
        self.label = label          # component name / dispatch site
        self.event_type = event_type
        self.clock = clock          # immutable snapshot

    def __repr__(self) -> str:
        return f"<epoch #{self.number} {self.label}<-{self.event_type} {self.clock!r}>"


class HBTracker:
    """Maintains the happens-before order for one analysis run.

    Not attached anywhere by itself — :class:`~repro.analysis.race.hooks.
    RaceRuntime` attaches to the :mod:`repro.core.observe` seam and calls
    these methods from its hooks.  All state is behind one re-entrant lock
    so the tracker is usable under the work-stealing scheduler as well as
    the simulator.
    """

    def __init__(self, keep_epochs: bool = False) -> None:
        self._lock = threading.RLock()
        self._indices = itertools.count(1)
        self._epoch_numbers = itertools.count(1)
        self._components: dict[int, _Context] = {}   # id(core) -> ctx
        self._component_refs: dict[int, object] = {}  # keep cores alive (no id reuse)
        self._threads: dict[int, _Context] = {}      # thread ident -> ctx
        self._stamps: dict[int, VectorClock] = {}    # id(event) -> clock
        self._tls = threading.local()
        self.keep_epochs = keep_epochs
        self.epochs: list[Epoch] = []

    # ------------------------------------------------------------- contexts

    def _stack(self) -> list[tuple[_Context, Optional[Epoch]]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _component_context(self, core: "ComponentCore") -> _Context:
        ctx = self._components.get(id(core))
        if ctx is None:
            ctx = _Context(next(self._indices), core.name, "component")
            self._components[id(core)] = ctx
            self._component_refs[id(core)] = core
        return ctx

    def _thread_context(self) -> _Context:
        ident = threading.get_ident()
        ctx = self._threads.get(ident)
        if ctx is None:
            name = threading.current_thread().name
            ctx = _Context(next(self._indices), f"thread:{name}", "thread")
            self._threads[ident] = ctx
        return ctx

    def current_context(self) -> _Context:
        stack = self._stack()
        if stack:
            return stack[-1][0]
        return self._thread_context()

    def current_epoch(self) -> Optional[Epoch]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def ambient_epoch(self, label: str = "driver") -> Epoch:
        """An epoch for an access made outside any handler execution.

        External-thread actions are in real program order, so the thread
        context ticks per access: successive driver accesses are ordered,
        and each is ordered relative to everything the driver observed.
        """
        with self._lock:
            ctx = self._thread_context()
            ctx.clock.tick(ctx.index)
            return self._new_epoch(ctx, ctx.name, label)

    def _new_epoch(self, ctx: _Context, label: str, event_type: str) -> Epoch:
        epoch = Epoch(
            next(self._epoch_numbers), ctx.index, label, event_type, ctx.clock.copy()
        )
        if self.keep_epochs:
            self.epochs.append(epoch)
        return epoch

    # ------------------------------------------------------- event stamping

    def _stamp_clock(self) -> VectorClock:
        ctx = self.current_context()
        if ctx.kind == "thread":
            # External threads have no epochs; tick per outward action so
            # the driver's sequential triggers/schedules stay ordered.
            ctx.clock.tick(ctx.index)
        return ctx.clock.copy()

    def _remember_stamp(self, obj: object, clock: VectorClock) -> None:
        key = id(obj)
        existing = self._stamps.get(key)
        if existing is not None:
            existing.join(clock)
            return
        self._stamps[key] = clock
        try:
            weakref.finalize(obj, self._stamps.pop, key, None)
        except TypeError:  # pragma: no cover - all Events are weakref-able
            pass

    def stamp_event(self, event: object) -> None:
        """``dispatch.trigger`` hook: the trigger→delivery edge."""
        with self._lock:
            self._remember_stamp(event, self._stamp_clock())

    def stamp_entry(self, entry: "ScheduledEntry") -> None:
        """``EventQueue.schedule`` hook: the schedule→dispatch edge."""
        with self._lock:
            entry.stamp = self._stamp_clock()

    # ----------------------------------------------------------- executions

    def begin_execution(self, core: "ComponentCore", item: "WorkItem") -> Epoch:
        with self._lock:
            ctx = self._component_context(core)
            stamp = self._stamps.get(id(item.event))
            if stamp is not None:
                ctx.clock.join(stamp)
            ctx.clock.tick(ctx.index)
            epoch = self._new_epoch(ctx, core.name, type(item.event).__name__)
        self._stack().append((ctx, epoch))
        return epoch

    def end_execution(self, *_where: object) -> None:
        """Leave the innermost handler execution or timed dispatch."""
        stack = self._stack()
        if stack:
            stack.pop()

    def fire_begin(self, entry: "ScheduledEntry") -> None:
        """``Simulation.run`` hook: a timed dispatch runs in a fresh context
        seeded from its schedule-time stamp, until :meth:`end_execution`.

        A fresh context (not the loop thread's) means consecutive timed
        dispatches are concurrent unless a real edge orders them — the
        loop's serialization is an artifact the multi-core runtime would
        not reproduce.
        """
        action = getattr(entry.action, "__qualname__", None) or repr(entry.action)
        with self._lock:
            ctx = _Context(next(self._indices), f"dispatch@{entry.time:.6f}", "entry")
            stamp = entry.stamp
            if stamp is not None:
                ctx.clock.join(stamp)
            else:
                ctx.clock.join(self._thread_context().clock)
            ctx.clock.tick(ctx.index)
            epoch = self._new_epoch(ctx, ctx.name, action)
        self._stack().append((ctx, epoch))

    # --------------------------------------------------- reconfiguration ops

    def channel_op(self, op: str, channel: object, events: Iterable[object]) -> None:
        """Channel hook: hold/resume/release/unplug/plug edges.

        ``release`` (one event flushed by ``resume``) and ``plug`` (queued
        events that can now flow) join the commanding execution's clock
        into the affected events' stamps: their eventual delivery
        happens-after the command that let them through.
        """
        if op not in ("release", "plug"):
            return
        with self._lock:
            clock = self.current_context().clock.copy()
            for event in events:
                self._remember_stamp(event, clock.copy())

    def state_transfer(self, old_core: "ComponentCore", new_core: "ComponentCore") -> None:
        """Reconfig hook: old component's history precedes the new one's."""
        with self._lock:
            old_ctx = self._component_context(old_core)
            new_ctx = self._component_context(new_core)
            new_ctx.clock.join(old_ctx.clock)

    # -------------------------------------------------------------- queries

    def happens_before(self, first: Epoch, second: Epoch) -> bool:
        """True when ``first`` is ordered strictly before ``second``."""
        return first is not second and first.clock.leq(second.clock)

    def concurrent(self, first: Epoch, second: Epoch) -> bool:
        return first.clock.concurrent_with(second.clock)

    def epochs_of(
        self,
        label: Optional[str] = None,
        event_type: Optional[str] = None,
    ) -> list[Epoch]:
        """Recorded epochs filtered by component label / event type name
        (requires ``keep_epochs=True``)."""
        return [
            epoch
            for epoch in self.epochs
            if (label is None or epoch.label == label)
            and (event_type is None or epoch.event_type == event_type)
        ]
