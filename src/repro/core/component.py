"""Components: reactive, concurrently executing state machines (paper §2.1).

Two classes cooperate:

:class:`ComponentDefinition`
    the user-facing base class.  Its constructor body declares ports
    (``provides``/``requires``), subscribes handlers, creates subcomponents
    and connects channels — exactly the paper's programming constructs.

:class:`ComponentCore`
    the runtime half: the FIFO work queue, the idle/ready/busy execution
    state driving the scheduler, life-cycle state, fault wrapping, and the
    containment hierarchy.

Handlers of one component instance are mutually exclusive: the scheduler
never executes a component on two workers at once, so handler code needs no
locks to protect component-local state.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Hashable, NamedTuple, Optional, TypeVar

from . import channel as channel_mod
from . import dispatch, observe, routing
from .errors import ConfigurationError, LifecycleError, SanitizerError
from .event import Direction, Event
from .fault import Fault, escalate
from .handler import HandlerFn, Subscription, make_subscription
from .lifecycle import ControlPort, Init, LifecycleState, Start, Stop
from .port import Port, PortFace, PortType

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.system import ComponentSystem
    from .channel import Channel


# Stack of cores under construction; create() nests, so this is a stack.
_construction = threading.local()


def _construction_stack() -> list["ComponentCore"]:
    stack = getattr(_construction, "stack", None)
    if stack is None:
        stack = []
        _construction.stack = stack
    return stack


def _noop_handler(_event: Event) -> None:
    """Built-in no-op target for life-cycle events."""


_log = logging.getLogger("repro.core")


class _Execution(threading.local):
    """Per thread: is a handler executing here, and what runs when it returns.

    ``running`` is set by :meth:`ComponentCore.execute` and
    :meth:`ComponentCore.execute_slot` around each work item; ``deferred``
    holds the ``{key: fn}`` calls that :func:`after_handler` registered
    while it ran, run (and cleared) as the item returns.  ``claimed``,
    while :func:`deliver_and_run` runs, collects the components made ready
    on this thread (``ComponentSystem.component_ready``) instead of a worker.
    """

    running = False
    deferred: Optional[dict] = None
    claimed: Optional[deque] = None

    def run_deferred(self) -> None:
        while self.deferred:
            deferred, self.deferred = self.deferred, None
            for key, fn in deferred.items():
                try:
                    fn(key)
                except Exception:  # noqa: BLE001 - must not kill the worker
                    _log.exception("call after handler return raised")


_execution = _Execution()


def after_handler(fn: Callable[[Hashable], None], key: Hashable) -> bool:
    """Run ``fn(key)`` once when the handler executing on this thread returns.

    However often it is asked for the same ``key`` during one handler
    execution, the call runs once, after the handler and before the
    scheduler moves on, still on this thread.  Returns False, and
    registers nothing, when no handler is executing on the calling
    thread (a foreign thread, or the driver of a manual scheduler
    between slots).
    """
    ctx = _execution
    if not ctx.running:
        return False
    deferred = ctx.deferred
    if deferred is None:
        deferred = ctx.deferred = {}
    deferred.setdefault(key, fn)
    return True


def deliver_and_run(deliver: Callable[[], None], budget: int) -> int:
    """Call ``deliver``, then execute here what it made ready; return the slots.

    While ``deliver`` runs, and while the claimed components execute, every
    component that becomes ready on this thread is claimed by it instead
    of being pushed to a worker.  They are executed through
    :meth:`ComponentCore.execute` exactly as a worker would, one slot each
    in turn, for at most ``budget`` slots; whatever is still ready then
    (or when something raises, or the system halted) goes to its scheduler.  The caller must be
    a thread that runs no handler (an I/O loop).
    """
    ctx = _execution
    claimed = ctx.claimed = deque()
    slots = 0
    try:
        deliver()
        while claimed and slots < budget and not claimed[0].system.halted:
            core = claimed.popleft()
            slots += 1
            if core.execute(core.system.scheduler.throughput):
                claimed.append(core)
    finally:
        ctx.claimed = None
        for core in claimed:
            core.system.scheduler.schedule(core)
    return slots


class WorkItem(NamedTuple):
    """One delivered event awaiting execution.

    ``face`` identifies where the event arrived; handlers are re-matched
    against the face's subscriptions at execution time (Kompics port-queue
    semantics).  Items with ``face=None`` carry pre-bound handlers (used for
    fault escalation, which bypasses ports).

    A named tuple, not a slotted class: one is allocated per delivered
    event, and ``tuple.__new__`` skips the Python-level ``__init__`` frame.
    """

    event: Event
    face: Optional[PortFace]
    handlers: tuple
    is_control: bool


class ExecutionState:
    """Scheduler-facing execution states (paper section 3)."""

    IDLE = 0
    READY = 1
    BUSY = 2


# Hot-path locals: the single-threaded execution path compares these on
# every enqueue/execute; module globals skip two attribute loads each.
_IDLE = ExecutionState.IDLE
_READY = ExecutionState.READY
_BUSY = ExecutionState.BUSY
_DESTROYED = LifecycleState.DESTROYED
_FAULTY = LifecycleState.FAULTY
_PASSIVE = LifecycleState.PASSIVE
_ACTIVE = LifecycleState.ACTIVE
_LIFECYCLE = (Init, Start, Stop)


class ComponentDefinition:
    """Base class for component behaviours.

    Subclasses declare ports, state and handlers in ``__init__`` (after
    calling ``super().__init__()``) and react to events in ``@handles``
    methods.  All the Kompics operations (trigger, create, destroy, connect,
    disconnect, subscribe, unsubscribe) are methods on this class.
    """

    def __init__(self) -> None:
        stack = _construction_stack()
        if not stack:
            raise ConfigurationError(
                f"{type(self).__name__} must be created through create() or "
                f"ComponentSystem.bootstrap(), not instantiated directly"
            )
        self._core: ComponentCore = stack[-1]
        self.log = logging.getLogger(f"repro.{type(self).__name__}")

    # ----------------------------------------------------------- introspection

    @property
    def core(self) -> "ComponentCore":
        return self._core

    @property
    def system(self) -> "ComponentSystem":
        return self._core.system

    @property
    def control(self) -> PortFace:
        """Inside face of this component's control port (for Init/Start/Stop
        subscriptions)."""
        return self._core.control_port.inside

    def now(self) -> float:
        """Current time in seconds from the runtime clock.

        Components must use this (never ``time.time()``) so the same code
        runs under both the production clock and simulated time — the
        decoupling the paper achieves via bytecode instrumentation.
        """
        return self._core.system.clock.now()

    def random(self):
        """The system's seeded random source (deterministic in simulation)."""
        return self._core.system.random

    # ------------------------------------------------------------------ ports

    def provides(self, port_type: type[PortType]) -> PortFace:
        """Declare a provided port; returns its inside face."""
        return self._core.add_port(port_type, provided=True).inside

    def requires(self, port_type: type[PortType]) -> PortFace:
        """Declare a required port; returns its inside face."""
        return self._core.add_port(port_type, provided=False).inside

    # ------------------------------------------------------------- operations

    def subscribe(
        self,
        handler: HandlerFn,
        face: PortFace,
        event_type: Optional[type[Event]] = None,
    ) -> None:
        """Subscribe a handler to a port face (own port or a child's)."""
        subscription = make_subscription(handler, face, self._core, event_type)
        face.attach_subscription(subscription)
        face._handlers = None
        self._core.note_init_subscription(subscription, face)
        routing.invalidate(face)

    def direct_entry(
        self, face: PortFace, event_type: type[Event], entry: Callable[[Event], None]
    ) -> None:
        """Let senders call ``entry`` for ``event_type`` requests at ``face``.

        ``face`` is the inside face of one of this component's provided
        ports.  Compiled plans then deliver such a request by calling
        :meth:`ComponentCore.receive_direct`, which runs ``entry`` inside
        the sender's handler execution while this component is ACTIVE and
        has nothing queued, buffered or executing; otherwise the request
        takes the mailbox as usual and the subscribed handler runs it.
        ``entry`` must therefore be safe to call from any thread, also
        concurrently with itself and with this component's handlers.
        """
        port = face.port
        if (
            port.owner is not self._core
            or not port.is_provided
            or not face.is_inside
            or port.is_control
        ):
            raise ConfigurationError(
                f"a direct entry needs the inside face of a provided port of "
                f"{self._core.name}, not {face!r}"
            )
        if not port.port_type.allowed(Direction.NEGATIVE, event_type):
            raise ConfigurationError(
                f"{event_type.__name__} is not a request of {port.port_type.__name__}"
            )
        entries = self._core._entries
        if entries is None:
            entries = self._core._entries = {}
        if face in entries:
            raise ConfigurationError(f"{face!r} already has a direct entry")
        entries[face] = (event_type, entry)
        routing.invalidate(face)

    def unsubscribe(self, handler: HandlerFn, face: PortFace) -> None:
        """Remove this component's subscription of ``handler`` from ``face``."""
        for subscription in face.subscriptions:
            if subscription.handler == handler and subscription.owner is self._core:
                face.subscriptions.remove(subscription)
                face._handlers = None
                routing.invalidate(face)
                return
        raise ConfigurationError(f"{handler!r} is not subscribed at {face!r}")

    #: Asynchronously send an event through a port face.  A staticmethod
    #: bound straight to :func:`dispatch.trigger`: ``self`` plays no part,
    #: and handlers trigger on every delivered event, so the wrapper frame
    #: is pure overhead.
    trigger = staticmethod(dispatch.trigger)

    def create(
        self,
        definition: type["DefinitionT"],
        *args: object,
        init: Optional[Init] = None,
        name: Optional[str] = None,
        **kwargs: object,
    ) -> "Component":
        """Create a subcomponent (passive until started)."""
        core = ComponentCore(
            self.system, definition, args, kwargs, parent=self._core, name=name
        )
        self._core.children.append(core)
        if init is not None:
            dispatch.trigger(init, core.control_port.outside)
        return core.component

    def destroy(self, component: "Component") -> None:
        """Destroy a subcomponent, its subtree, and its channels."""
        component.core.destroy()

    def start_child(self, component: "Component") -> None:
        """Trigger Start on a child's control port."""
        dispatch.trigger(Start(), component.core.control_port.outside)

    def stop_child(self, component: "Component") -> None:
        """Trigger Stop on a child's control port."""
        dispatch.trigger(Stop(), component.core.control_port.outside)

    def connect(
        self,
        face_a: PortFace,
        face_b: PortFace,
        selector: Optional[channel_mod.Selector] = None,
    ) -> "Channel":
        """Connect two complementary port faces with a new channel."""
        return channel_mod.connect(face_a, face_b, selector=selector)

    def disconnect(self, face_a: PortFace, face_b: PortFace) -> None:
        """Destroy the channel between two faces."""
        channel_mod.disconnect(face_a, face_b)

    # ----------------------------------------------------------------- hooks

    def tear_down(self) -> None:
        """Called when the component is destroyed; override to release
        external resources (threads, sockets)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ({self._core.name})>"


DefinitionT = TypeVar("DefinitionT", bound=ComponentDefinition)


class Component:
    """Parent-facing facade of a component (what ``create`` returns)."""

    __slots__ = ("core",)

    def __init__(self, core: "ComponentCore") -> None:
        self.core = core

    def provided(self, port_type: type[PortType]) -> PortFace:
        """Outside face of the component's provided port of ``port_type``."""
        return self.core.port(port_type, provided=True).outside

    def required(self, port_type: type[PortType]) -> PortFace:
        """Outside face of the component's required port of ``port_type``."""
        return self.core.port(port_type, provided=False).outside

    def control(self) -> PortFace:
        """Outside face of the component's control port."""
        return self.core.control_port.outside

    @property
    def definition(self) -> ComponentDefinition:
        return self.core.definition

    @property
    def state(self) -> LifecycleState:
        return self.core.state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Component {self.core.name} {self.core.state.value}>"


class ComponentCore:
    """Runtime state of one component instance.

    Slotted: one core exists per component, and a large simulation holds
    tens of thousands of them — dropping the per-instance ``__dict__``
    (and keeping the rarely-used admission buffer a plain list) is a
    measurable share of the bytes/peer budget (see
    ``benchmarks/bench_footprint.py``).
    """

    __slots__ = (
        "id",
        "system",
        "parent",
        "name",
        "children",
        "ports",
        "control_port",
        "state",
        "_exec_state",
        "_queue",
        "_qhead",
        "_buffer",
        "_lock",
        "_single_threaded",
        "_needs_init",
        "_init_received",
        "_fast_admit",
        "_entries",
        "component",
        "definition",
    )

    def __init__(
        self,
        system: "ComponentSystem",
        definition_cls: type[ComponentDefinition],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        parent: Optional["ComponentCore"] = None,
        name: Optional[str] = None,
    ) -> None:
        self.id = system.next_component_id()
        self.system = system
        self.parent = parent
        self.name = name or f"{definition_cls.__name__}-{self.id}"
        self.children: list[ComponentCore] = []
        self.ports: dict[tuple[type[PortType], bool], Port] = {}
        self.control_port = Port(ControlPort, self, is_provided=True, is_control=True)
        # Built-in life-cycle subscription: Start/Stop/Init must be
        # processed even when the definition subscribes no handler for them.
        # One Event-typed subscription covers all three — the control
        # port's type check restricts inside-face traffic to exactly the
        # lifecycle events, and Fault travels in the positive direction
        # (outside faces), so nothing else can ever match it.  It bypasses
        # note_init_subscription so it does not trip the Init-first
        # guarantee.
        self.control_port.inside.attach_subscription(
            Subscription(_noop_handler, Event, self.control_port.inside, self)
        )

        self.state = LifecycleState.PASSIVE
        self._exec_state = ExecutionState.IDLE
        #: The FIFO work queue: a plain list with a head index rather than
        #: a deque — an empty list is a fraction of an empty deque's size,
        #: and one queue exists per component.  ``_qhead`` points at the
        #: next item; the list is reset whenever the queue drains (the
        #: common case: deliver one, execute one), so the dead prefix
        #: cannot grow unboundedly.
        self._queue: list[WorkItem] = []
        self._qhead = 0
        #: Inadmissible items parked until a lifecycle transition; a plain
        #: list, not a deque — it only ever appends, drains wholesale in
        #: _flush_buffer_locked, and sits empty for a component's lifetime.
        self._buffer: list[WorkItem] = []
        self._lock = threading.Lock()
        # Under a single-threaded scheduler (deterministic simulation) every
        # state transition happens on the driving thread, so the hot paths
        # skip the lock entirely (see _enqueue and execute_slot).
        self._single_threaded = getattr(system, "_single_threaded", False)
        self._needs_init = False
        self._init_received = False
        # Cached admission verdict for receive_event's fast path: True only
        # while "single-threaded, initialized, started, healthy" is known to
        # hold.  Set lazily after one full check passes; cleared at every
        # transition that can change the answer (stop, fault, destroy, a
        # late Init subscription).  A stale False is merely slow; the
        # clearing sites keep True from ever going stale.
        self._fast_admit = False
        #: ``{face: (event type, entry)}`` registered by
        #: ``ComponentDefinition.direct_entry``, or None (nearly every core).
        self._entries: Optional[dict] = None
        self.component = Component(self)

        stack = _construction_stack()
        stack.append(self)
        try:
            self.definition = definition_cls(*args, **(kwargs or {}))
        finally:
            stack.pop()
        system.register_component(self)

    # ------------------------------------------------------------------ ports

    def add_port(self, port_type: type[PortType], provided: bool) -> Port:
        key = (port_type, provided)
        if key in self.ports:
            raise ConfigurationError(
                f"{self.name} already declares a "
                f"{'provided' if provided else 'required'} {port_type.__name__} port"
            )
        port = Port(port_type, self, is_provided=provided)
        self.ports[key] = port
        return port

    def port(self, port_type: type[PortType], provided: bool) -> Port:
        try:
            return self.ports[(port_type, provided)]
        except KeyError:
            raise ConfigurationError(
                f"{self.name} has no "
                f"{'provided' if provided else 'required'} {port_type.__name__} port"
            ) from None

    def note_init_subscription(self, subscription, face: PortFace) -> None:
        """Track whether an Init handler exists, for the Init-first guarantee."""
        if (
            face.port is self.control_port
            and face.is_inside
            and issubclass(subscription.event_type, Init)
        ):
            self._needs_init = True
            self._fast_admit = False

    # --------------------------------------------------------------- delivery

    def receive_event(self, event: Event, face: PortFace) -> None:
        """Enqueue an event delivered at ``face`` (called by dispatch).

        Inlines the single-threaded branch of :meth:`_enqueue` (including
        ``ComponentSystem.component_ready``) for the started, initialized,
        healthy component — every delivered simulation event lands here.
        """
        item = WorkItem(event, face, (), face.is_control)
        if not self._fast_admit:
            if not self._single_threaded:
                self._enqueue(item)
                return
            state = self.state
            if state is _DESTROYED:
                return
            if (
                (not self._init_received and self._needs_init)
                or state is _PASSIVE
                or state is _FAULTY
            ):
                self._enqueue(item)
                return
            self._fast_admit = True
        self._queue.append(item)
        if self._exec_state == _IDLE:
            self._exec_state = _READY
            # component_ready, inlined (single-threaded branch).
            system = self.system
            if system._single_threaded:
                system._active += 1
                system.scheduler.schedule(self)
            else:
                system.component_ready(self)

    def receive_direct(self, event: Event, face: PortFace) -> None:
        """Deliver a request at a face with a direct entry (called by plans).

        The entry runs in the sender's handler execution, on the sender's
        thread, only while nothing of this component's can still be ahead
        of it: the component is ACTIVE, IDLE (nothing queued, nothing
        executing) and has nothing buffered.  That keeps each sender's
        requests in FIFO order — an earlier one still in the mailbox, or
        still executing, sends this one there too.  A sender that is not a
        running handler (a foreign thread) always takes the mailbox.  An
        exception in the entry is logged and goes no further: it must not
        fault the sender.
        """
        if (
            self._exec_state == _IDLE
            and self.state is _ACTIVE
            and _execution.running
            and not self._buffer
        ):
            try:
                self._entries[face][1](event)
            except SanitizerError:
                raise
            except Exception:  # noqa: BLE001 - the sender must not fault
                _log.exception("direct entry of %s raised", self.name)
            return
        self.receive_event(event, face)

    def receive_work(
        self, event: Event, handlers: tuple[HandlerFn, ...], is_control: bool
    ) -> None:
        """Enqueue an event with pre-bound handlers (fault escalation path)."""
        self._enqueue(WorkItem(event, None, handlers, is_control))

    def _enqueue(self, item: WorkItem) -> None:
        if self._single_threaded:
            state = self.state
            if state is _DESTROYED:
                return
            # Inlined _admissible fast path: a started, initialized, healthy
            # component admits everything (the overwhelmingly common case).
            if (
                (self._init_received or not self._needs_init)
                and state is not _PASSIVE
                and state is not _FAULTY
            ):
                self._queue.append(item)
                if self._exec_state == _IDLE:
                    self._exec_state = _READY
                    self.system.component_ready(self)
                return
            if not self._admissible(item):
                self._buffer.append(item)
                return
            self._queue.append(item)
            if self._exec_state == _IDLE:
                self._exec_state = _READY
                self.system.component_ready(self)
            return
        must_schedule = False
        with self._lock:
            if self.state is LifecycleState.DESTROYED:
                return
            if not self._admissible(item):
                self._buffer.append(item)
                return
            self._queue.append(item)
            if self._exec_state == ExecutionState.IDLE:
                self._exec_state = ExecutionState.READY
                must_schedule = True
        if must_schedule:
            self.system.component_ready(self)

    def _popleft(self) -> WorkItem:
        """Pop the next work item; reset the list whenever it drains.

        The invariant maintained here — the list is truthy iff live items
        remain — is what lets every ``if self._queue:`` emptiness check
        stay a plain truth test.
        """
        queue = self._queue
        head = self._qhead
        item = queue[head]
        head += 1
        if head == len(queue):
            queue.clear()
            self._qhead = 0
        else:
            queue[head - 1] = None  # type: ignore[call-overload]  # release the ref
            self._qhead = head
        return item

    def _admissible(self, item: WorkItem) -> bool:
        """May this work item enter the executable queue right now?"""
        if self._needs_init and not self._init_received:
            return isinstance(item.event, Init)
        state = self.state
        if state is _PASSIVE:
            return item.is_control
        if state is _FAULTY:
            return False
        return True

    def _flush_buffer_locked(self) -> None:
        """Re-offer buffered items after a state change (lock held)."""
        pending = list(self._buffer)
        self._buffer.clear()
        for item in pending:
            if self._admissible(item):
                self._queue.append(item)
            else:
                self._buffer.append(item)

    # -------------------------------------------------------------- execution

    def execute(self, max_events: int = 1) -> bool:
        """Execute up to ``max_events`` queued events.

        Returns True if the component is still READY (the caller must
        requeue it), False if it went idle.  Called only by schedulers; the
        BUSY state guarantees handler mutual exclusion.  READY→BUSY and the
        first pop share one lock acquisition, so one event costs two.
        """
        stopped_states = (LifecycleState.DESTROYED, LifecycleState.FAULTY)
        with self._lock:
            if self._exec_state != ExecutionState.READY:
                return False
            self._exec_state = ExecutionState.BUSY
            live = self._queue and self.state not in stopped_states
            item = self._popleft() if live else None

        executed = 0
        ctx = _execution
        outer = ctx.running
        ctx.running = True
        try:
            while item is not None:
                self._execute_item(item)
                if ctx.deferred:
                    ctx.run_deferred()
                executed += 1
                if executed >= max_events:
                    break
                with self._lock:
                    if self.state in stopped_states or not self._queue:
                        break
                    item = self._popleft()
        finally:
            ctx.running = outer

        with self._lock:
            if self.state in stopped_states or not self._queue:
                self._exec_state = ExecutionState.IDLE
                still_ready = False
            else:
                self._exec_state = ExecutionState.READY
                still_ready = True
        if not still_ready:
            self.system.component_idle(self)
        return still_ready

    def execute_slot(self) -> bool:
        """Single-threaded :meth:`execute` with ``max_events=1``.

        Same state transitions and return contract, but without the three
        lock round-trips — only the ManualScheduler's drain calls this, and
        there every transition happens on the driving thread.  The BUSY
        guard still matters: handlers triggering on their own component must
        see a non-IDLE state so _enqueue does not double-schedule.
        """
        if self._exec_state != _READY:
            return False
        self._exec_state = _BUSY
        queue = self._queue
        state = self.state
        if queue and state is not _DESTROYED and state is not _FAULTY:
            item = self._popleft()
            ctx = _execution
            outer = ctx.running
            ctx.running = True
            try:
                if self.system.tracer is not None or observe.observer is not None:
                    self._execute_item(item)  # instrumented path (tracer/observers)
                elif isinstance(item.event, _LIFECYCLE):
                    self._dispatch_item(item)
                else:
                    self._run_handlers(item)
                if ctx.deferred:
                    ctx.run_deferred()
            finally:
                ctx.running = outer
            state = self.state  # the handler may have faulted or destroyed us
        if queue and state is not _DESTROYED and state is not _FAULTY:
            self._exec_state = _READY
            return True
        self._exec_state = _IDLE
        self.system.component_idle(self)
        return False

    def _execute_item(self, item: WorkItem) -> None:
        event = item.event
        tracer = self.system.tracer
        if tracer is not None:
            tracer.record(
                self.system.clock.now(), self.name, type(event).__name__
            )
        obs = observe.observer
        if obs is not None:
            obs.begin(self, item)
            try:
                self._dispatch_item(item)
            finally:
                obs.end(self, item)
            return
        self._dispatch_item(item)

    def _dispatch_item(self, item: WorkItem) -> None:
        event = item.event
        if isinstance(event, Init):
            self._handle_init(item)
        elif isinstance(event, Start):
            self._handle_start(item)
        elif isinstance(event, Stop):
            self._handle_stop(item)
        else:
            self._run_handlers(item)

    def _match_handlers(self, item: WorkItem) -> tuple[HandlerFn, ...]:
        face = item.face
        if face is None:
            return item.handlers
        event_type = type(item.event)
        # Matching is pure in (face subscriptions, owner, event type); the
        # per-face cache is reset whenever subscriptions mutate, so repeat
        # deliveries skip the subscription scan entirely.
        cache = face._handlers
        if cache is None:
            cache = {}
            face._handlers = cache
        key = (self, event_type)
        handlers = cache.get(key)
        if handlers is None:
            handlers = tuple(
                s.handler
                for s in tuple(face.subscriptions)
                if s.owner is self and issubclass(event_type, s.event_type)
            )
            cache[key] = handlers
        return handlers

    def _run_handlers(self, item: WorkItem) -> None:
        # _match_handlers cache hit, inlined (one call frame per executed
        # event); misses fall through to the matching path.
        face = item.face
        if face is not None and (cache := face._handlers) is not None:
            handlers = cache.get((self, type(item.event)))
            if handlers is None:
                handlers = self._match_handlers(item)
        else:
            handlers = self._match_handlers(item)
        for handler in handlers:
            try:
                handler(item.event)
            except SanitizerError:
                raise  # sanitizer violations surface immediately, unwrapped
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                self._fault(exc, item.event)
                return

    def _fault(self, exc: BaseException, event: Event) -> None:
        """Wrap an uncaught handler exception per paper section 2.5."""
        with self._lock:
            self.state = LifecycleState.FAULTY
            self._fast_admit = False
        escalate(Fault(exc, self, event))

    def _handle_init(self, item: WorkItem) -> None:
        self._run_handlers(item)
        with self._lock:
            self._init_received = True
            self._flush_buffer_locked()

    def _handle_start(self, item: WorkItem) -> None:
        if self.state is LifecycleState.ACTIVE:
            return
        with self._lock:
            self.state = LifecycleState.ACTIVE
        self._run_handlers(item)
        for child in tuple(self.children):
            dispatch.trigger(Start(), child.control_port.outside)
        with self._lock:
            self._flush_buffer_locked()

    def _handle_stop(self, item: WorkItem) -> None:
        if self.state is not LifecycleState.ACTIVE:
            return
        self._run_handlers(item)
        with self._lock:
            self.state = LifecycleState.PASSIVE
            self._fast_admit = False
        for child in tuple(self.children):
            dispatch.trigger(Stop(), child.control_port.outside)

    # ----------------------------------------------------------- reconfig ops

    def drain_pending(self) -> list[WorkItem]:
        """Remove and return all delivered-but-unexecuted work items.

        Used by :func:`repro.core.reconfig.replace_component` to migrate
        in-queue events from a component being replaced to its successor,
        so that reconfiguration drops no triggered events.
        """
        with self._lock:
            items = [*self._queue[self._qhead :], *self._buffer]
            self._queue.clear()
            self._qhead = 0
            self._buffer.clear()
        return items

    def recover(self) -> None:
        """Clear a FAULTY state and resume executing queued events."""
        must_schedule = False
        with self._lock:
            if self.state is not LifecycleState.FAULTY:
                raise LifecycleError(f"{self.name} is not faulty")
            self.state = LifecycleState.ACTIVE
            self._flush_buffer_locked()
            if self._queue and self._exec_state == ExecutionState.IDLE:
                self._exec_state = ExecutionState.READY
                must_schedule = True
        if must_schedule:
            self.system.component_ready(self)

    def destroy(self) -> None:
        """Destroy this component, its subtree and all attached channels."""
        with self._lock:
            if self.state is LifecycleState.DESTROYED:
                return
            self.state = LifecycleState.DESTROYED
            self._fast_admit = False
            self._queue.clear()
            self._qhead = 0
            self._buffer.clear()
        for child in tuple(self.children):
            child.destroy()
        all_ports = [self.control_port, *self.ports.values()]
        for port in all_ports:
            for face in (port.inside, port.outside):
                for ch in tuple(face.channels):
                    ch.destroy()
                face.subscriptions = ()  # back to the shared empty sentinel
            # Drop the routes rooted here and those of others that read
            # these faces, and hand back the reader records: a late trigger
            # at a destroyed component must reach nobody.
            routing.invalidate(port.inside, port.outside)
        try:
            self.definition.tear_down()
        except Exception:  # noqa: BLE001 - teardown must not break destroy
            _log.exception("tear_down of %s raised", self.name)
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        self.system.unregister_component(self)

    # ------------------------------------------------------------- inspection

    @property
    def pending_events(self) -> int:
        with self._lock:
            return len(self._queue) - self._qhead + len(self._buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ComponentCore {self.name} {self.state.value}>"
