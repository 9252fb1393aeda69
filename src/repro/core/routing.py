"""Compiled dispatch plans: routing tables invalidated per face.

:mod:`repro.core.dispatch` states event dissemination as a recursive rule
over port faces and channels (paper section 2.3).  Applied per event, that
rule would re-derive the same routing decision every time: re-cross the
same component boundaries, re-scan the same subscription lists with
``issubclass``, re-run graph reachability for the paper's pruning
optimization.  The topology only changes when a reconfiguration command
runs, so all of that work is loop-invariant between topology changes.

This module applies the rule once per route.  For a ``(face, event type,
direction)`` key it flattens the recursive arrive/deliver/forward
traversal into an immutable :class:`DeliveryPlan`:

- an ordered sequence of **delivery steps** ``(owner, face)`` — the
  ``ComponentCore.receive_event`` calls of the traversal, in its
  depth-first order (so per-component FIFO order is preserved).  A step
  to a face where the owner registered a direct entry for the event type
  (``ComponentDefinition.direct_entry``) compiles to
  ``ComponentCore.receive_direct`` instead, which calls the entry in the
  sender's execution while the owner is ACTIVE and its mailbox empty, and
  falls back to ``receive_event`` otherwise;
- **live steps** ``(channel, source face)`` for the channel hops that must
  still run live logic at event time: selector channels (the predicate
  sees the event value), and held or unplugged channels, which compile to
  a "stop and queue here" step so the reconfiguration guarantee of paper
  section 2.6 — no triggered event is ever dropped — is preserved exactly.
  A live step simply calls :meth:`Channel.forward`, which queues under the
  channel lock or, when the selector passes on a live channel, continues
  through the *destination face's own compiled plan*.

Plans are cached on the face they start from (their *root*) and stay valid
until something they read changes.  A walk reads mutable state — the
subscriptions, the channel list and the state of those channels — only at
faces it reaches travelling in the face's ``incoming`` direction; elsewhere
it just crosses the boundary.  At each such face, pruned "leads nowhere"
branches included, the compile records the root as a *reader*
(``PortFace._readers``).  Every operation that changes routing (subscribe/
unsubscribe, connect/disconnect, hold/resume, plug/unplug, destroy) calls
:func:`invalidate` on the face or the two channel ends it changed, which
drops the tables of that face's port and of its readers — and nobody
else's, so a reconfiguration costs what it touches (paper section 2.6: a
subtree comes and goes while the rest of the system keeps running).

The §2.3 pruning optimization falls out of compilation for free: a channel
hop whose destination subtree contains no compatible subscription (and no
held/unplugged queue-stop) contributes no steps, so the compiled plan for a
"leads nowhere" trigger is empty and executing it is a no-op.

Concurrency note: a cache hit takes no lock and reads no counter, so a
reconfiguration racing with an in-flight trigger from another thread may
be observed by that one event as either before or after the command.
Misses and invalidations serialize on ``ComponentSystem._plan_lock``:
compile-and-publish is one critical section and every mutation site
mutates first and invalidates after, so a plan compiled from pre-mutation
state is always published before that invalidation runs, and dropped by it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .event import Direction, Event

if TYPE_CHECKING:  # pragma: no cover
    from .component import ComponentCore
    from .port import PortFace

#: Step tags.  DELIVER enqueues on a component's work queue; LIVE runs a
#: channel's event-time logic (selector evaluation / held- or unplugged-
#: channel queueing).
DELIVER = 0
LIVE = 1


class DeliveryPlan:
    """An immutable, flattened route for one ``(face, event type, direction)``.

    ``steps`` is a tuple of ``(tag, a, b)`` triples: ``(DELIVER, owner,
    face)`` or ``(LIVE, channel, source_face)``.  When no live step exists
    (the overwhelmingly common case) ``deliveries`` holds the bare
    ``(owner, face)`` pairs so execution is a single tag-free loop.
    """

    __slots__ = ("event_type", "direction", "steps", "deliveries")

    def __init__(
        self,
        event_type: type[Event],
        direction: Direction,
        steps: tuple[tuple[int, object, object], ...],
    ) -> None:
        self.event_type = event_type
        self.direction = direction
        if any(tag == LIVE for tag, _, _ in steps):
            self.steps = steps
            self.deliveries: tuple | None = None
        else:
            # Prebound receive methods: one attribute lookup less per
            # delivered event on the tag-free loop.  The tagged triples are
            # redundant here (the owner is recoverable as
            # ``receive.__self__``), so the all-DELIVER case — nearly every
            # plan — stores only the prebound form: plan tables are a large
            # slice of a big simulation's per-peer footprint.  (The tagged
            # form below never calls a direct entry: it always enqueues.)
            self.steps = ()
            self.deliveries = tuple(
                (_receiver(owner, face, event_type), face) for _, owner, face in steps
            )

    def execute(self, event: Event) -> None:
        """Run the plan for one event."""
        deliveries = self.deliveries
        if deliveries is not None:
            for receive, face in deliveries:
                receive(event, face)
            return
        direction = self.direction
        for tag, a, b in self.steps:
            if tag == DELIVER:
                a.receive_event(event, b)
            else:
                a.forward(event, direction, b)

    def delivery_targets(self) -> list[tuple["ComponentCore", "PortFace"]]:
        """The inlined ``(owner, face)`` pairs (excludes live-step routes)."""
        if self.deliveries is not None:
            return [(receive.__self__, face) for receive, face in self.deliveries]
        return [(a, b) for tag, a, b in self.steps if tag == DELIVER]

    def live_channels(self) -> list[object]:
        """The channels this plan defers to event-time logic."""
        return [a for tag, a, _ in self.steps if tag == LIVE]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.deliveries is not None:
            deliver, live = len(self.deliveries), 0
        else:
            deliver = sum(1 for tag, _, _ in self.steps if tag == DELIVER)
            live = len(self.steps) - deliver
        return (
            f"<DeliveryPlan {self.event_type.__name__}/{self.direction.value} "
            f"deliver={deliver} live={live}>"
        )


def _receiver(owner: "ComponentCore", face: "PortFace", event_type: type[Event]):
    """The receive method a delivery step to ``face`` prebinds."""
    entries = owner._entries
    if entries is not None:
        entry = entries.get(face)
        if entry is not None and issubclass(event_type, entry[0]):
            return owner.receive_direct
    return owner.receive_event


def compile_plan(
    face: "PortFace",
    event_type: type[Event],
    direction: Direction,
    root: "PortFace | None" = None,
) -> DeliveryPlan:
    """Flatten the arrive/deliver/forward walk from ``face`` into a plan.

    The traversal follows the rules of :mod:`repro.core.dispatch` step for
    step, inlining across boundary crossings and live, selector-free, fully
    plugged channels.  Diamond topologies (two paths converging on one
    face) deliver once per path — only a true cycle, on which the rules
    never terminate, is cut.  Nothing is cached here; :func:`plan_for` does
    that, passing the face as ``root`` to have it recorded as a reader.
    """
    steps: list[tuple[int, object, object]] = []
    _flatten(face, event_type, direction, steps, set(), root)
    return DeliveryPlan(event_type, direction, tuple(steps))


def _flatten(
    face: "PortFace",
    event_type: type[Event],
    direction: Direction,
    steps: list,
    path: set[int],
    root: "PortFace | None",
) -> None:
    key = id(face)
    if key in path:
        return  # cycle guard; the rules never terminate here
    path.add(key)
    try:
        if direction is not face.incoming:
            # Flowing away from this face's subscribers: cross the boundary
            # (outside face inward, inside face outward).  Nothing mutable
            # is read here, so the face gains no reader.
            port = face.port
            across = port.outside if face.is_inside else port.inside
            _flatten(across, event_type, direction, steps, path, root)
            return
        # Deliver here, then forward along the attached channels (sibling
        # channels outside, delegation channels inside).  The plan depends
        # on both lists and the channels' state, even if this leads nowhere.
        if root is not None and face.port is not root.port:
            _record_reader(face, root)
        if face.subscriptions:
            # One delivery per subscribed owner, however many of its
            # handlers match (dict preserves subscription order).
            owners: dict = {}
            for subscription in tuple(face.subscriptions):
                if issubclass(event_type, subscription.event_type):
                    owners.setdefault(subscription.owner)
            for owner in owners:
                steps.append((DELIVER, owner, face))
        for channel in tuple(face.channels):
            if channel.destroyed:
                continue
            destination = channel.other_end(face)
            if channel.selector is not None or channel.held or destination is None:
                # Event-time logic required: selector predicates see the
                # event value; held/unplugged channels are queue-stops.
                steps.append((LIVE, channel, face))
                continue
            _flatten(destination, event_type, direction, steps, path, root)
    finally:
        path.discard(key)


def _record_reader(face: "PortFace", root: "PortFace") -> None:
    """Note that a plan cached on ``root`` read ``face`` (plan lock held).

    The record is a bare face, or a list once a second root reads here.
    Invalidation consumes it, and an entry whose root has lost its table
    since (invalidated through another face, or destroyed) is dropped
    before the record grows, so it never outgrows the most roots that read
    the face at one time — churn cannot leak it.
    """
    readers = face._readers
    if readers is None or readers is root:
        face._readers = root
    elif type(readers) is not list:
        face._readers = [readers, root] if readers._plans is not None else root
    elif root not in readers:
        readers[:] = [reader for reader in readers if reader._plans is not None]
        readers.append(root)


def _drop(face: "PortFace") -> int:
    """Forget the table cached on ``face``; returns how many plans went."""
    table = face._plans
    face._plans = None
    return sum(type(key) is tuple for key in table) if table is not None else 0


def invalidate(*faces: "PortFace | None") -> None:
    """Drop every cached plan that read one of ``faces``, after a change there.

    Callers mutate first and invalidate after (see the concurrency note in
    the module docstring).  Each face's reader record is consumed: the
    readers re-register when they next compile.  ``None`` stands for an
    unplugged channel end and is skipped.
    """
    faces = [face for face in faces if face is not None]
    if not faces:
        return
    system = faces[0].port.owner.system
    with system._plan_lock:
        dropped = 0
        for face in faces:
            port = face.port
            dropped += _drop(port.inside) + _drop(port.outside)
            readers = face._readers
            if readers is not None:
                face._readers = None
                for reader in readers if type(readers) is list else (readers,):
                    dropped += _drop(reader)
        system.plans_invalidated += dropped


def plan_locked(
    face: "PortFace", event_type: type[Event], direction: Direction
) -> DeliveryPlan:
    """:func:`plan_for` for a caller that holds the system's plan lock."""
    table = face._plans
    if table is None:
        # Before the walk: a root with a table counts as a live reader.
        face._plans = table = {}
    key = (event_type, direction)
    plan = table.get(key)
    if plan is None:
        table[key] = plan = compile_plan(face, event_type, direction, face)
        face.port.owner.system.plans_compiled += 1
    return plan


def plan_for(face: "PortFace", event_type: type[Event], direction: Direction) -> DeliveryPlan:
    """The cached plan for ``(face, event_type, direction)``, compiling on miss.

    The per-face cache is a ``{(event type, direction): plan}`` dict that
    lives until :func:`invalidate` drops it whole, so it holds at most one
    plan per event type routed from the face since the last change to
    anything those routes read.
    """
    with face.port.owner.system._plan_lock:
        return plan_locked(face, event_type, direction)


def execute(face: "PortFace", event: Event, direction: Direction) -> None:
    """Route one event from ``face`` through its compiled plan.

    Inlines :func:`plan_for`'s cache hit (no lock, one call frame fewer on
    every routed event); misses fall through to the shared compile path.
    """
    table = face._plans
    if table is not None:
        plan = table.get((type(event), direction))
        if plan is not None:
            plan.execute(event)
            return
    plan_for(face, type(event), direction).execute(event)


def cached_plans(face: "PortFace") -> Iterator[DeliveryPlan]:
    """Iterate the plans currently cached on ``face`` (introspection)."""
    table = face._plans
    if table is not None:  # trigger's bare-class keys alias these entries
        yield from [plan for key, plan in tuple(table.items()) if type(key) is tuple]
