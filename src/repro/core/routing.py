"""Compiled dispatch plans: generation-invalidated routing tables.

:mod:`repro.core.dispatch` states event dissemination as a recursive rule
over port faces and channels (paper section 2.3).  Applied per event, that
rule would re-derive the same routing decision every time: re-cross the
same component boundaries, re-scan the same subscription lists with
``issubclass``, re-run graph reachability for the paper's pruning
optimization.  The topology only changes when a reconfiguration command
runs, so all of that work is loop-invariant between topology changes.

This module applies the rule once per *topology generation*.  For a
``(face, event type, direction)`` key it flattens the recursive
arrive/deliver/forward traversal into an immutable :class:`DeliveryPlan`:

- an ordered sequence of **delivery steps** ``(owner, face)`` — the
  ``ComponentCore.receive_event`` calls of the traversal, in its
  depth-first order (so per-component FIFO order is preserved);
- **live steps** ``(channel, source face)`` for the channel hops that must
  still run live logic at event time: selector channels (the predicate
  sees the event value), and held or unplugged channels, which compile to
  a "stop and queue here" step so the reconfiguration guarantee of paper
  section 2.6 — no triggered event is ever dropped — is preserved exactly.
  A live step simply calls :meth:`Channel.forward`, which queues under the
  channel lock or, when the selector passes on a live channel, continues
  through the *destination face's own compiled plan*.

Plans are cached on the face they start from, keyed on the owning system's
``generation`` counter.  Every operation that changes routing bumps that
counter (subscribe/unsubscribe, connect/disconnect, hold/resume,
plug/unplug, component create/destroy), so a single integer comparison
validates the cache: stale tables are dropped wholesale, never scanned
entry by entry.

The §2.3 pruning optimization falls out of compilation for free: a channel
hop whose destination subtree contains no compatible subscription (and no
held/unplugged queue-stop) contributes no steps, so the compiled plan for a
"leads nowhere" trigger is empty and executing it is a no-op.

Concurrency note: plan execution is lock-free on the inlined path.  A
reconfiguration racing with an in-flight trigger from another thread may be
observed by that one event as either before or after the command.  The
generation check happens once per trigger, at plan lookup.
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

    __slots__ = ("event_type", "direction", "generation", "steps", "deliveries")

    def __init__(
        self,
        event_type: type[Event],
        direction: Direction,
        generation: int,
        steps: tuple[tuple[int, object, object], ...],
    ) -> None:
        self.event_type = event_type
        self.direction = direction
        self.generation = generation
        if any(tag == LIVE for tag, _, _ in steps):
            self.steps = steps
            self.deliveries: tuple | None = None
        else:
            # Prebound receive methods: one attribute lookup less per
            # delivered event on the tag-free loop.  The tagged triples are
            # redundant here (the owner is recoverable as
            # ``receive.__self__``), so the all-DELIVER case — nearly every
            # plan — stores only the prebound form: plan tables are a large
            # slice of a big simulation's per-peer footprint.
            self.steps = ()
            self.deliveries = tuple(
                (owner.receive_event, face) for _, owner, face in steps
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
            f"gen={self.generation} deliver={deliver} live={live}>"
        )


def compile_plan(
    face: "PortFace",
    event_type: type[Event],
    direction: Direction,
    generation: int | None = None,
) -> DeliveryPlan:
    """Flatten the arrive/deliver/forward walk from ``face`` into a plan.

    The traversal follows the rules of :mod:`repro.core.dispatch` step for
    step, inlining across boundary crossings and live, selector-free, fully
    plugged channels.  Diamond topologies (two paths converging on one
    face) deliver once per path — only a true cycle, on which the rules
    never terminate, is cut.
    """
    if generation is None:
        system = face.port.owner.system
        generation = system.generation if system is not None else 0
    steps: list[tuple[int, object, object]] = []
    _flatten(face, event_type, direction, steps, set())
    return DeliveryPlan(event_type, direction, generation, tuple(steps))


def _flatten(
    face: "PortFace",
    event_type: type[Event],
    direction: Direction,
    steps: list,
    path: set[int],
) -> None:
    key = id(face)
    if key in path:
        return  # cycle guard; the rules never terminate here
    path.add(key)
    try:
        if direction is face.incoming and face.subscriptions:
            # One delivery per subscribed owner, however many of its
            # handlers match (dict preserves subscription order).
            owners: dict = {}
            for subscription in tuple(face.subscriptions):
                if issubclass(event_type, subscription.event_type):
                    owners.setdefault(subscription.owner)
            for owner in owners:
                steps.append((DELIVER, owner, face))

        port = face.port
        inward = direction is port.boundary_inward
        if not face.is_inside:
            if inward:
                _flatten(port.inside, event_type, direction, steps, path)
                return
            channels = tuple(face.channels)
        elif inward:
            channels = tuple(face.channels)
        else:
            _flatten(port.outside, event_type, direction, steps, path)
            return

        for channel in channels:
            if channel.destroyed:
                continue
            destination = channel.other_end(face)
            if channel.selector is not None or channel.held or destination is None:
                # Event-time logic required: selector predicates see the
                # event value; held/unplugged channels are queue-stops.
                steps.append((LIVE, channel, face))
                continue
            _flatten(destination, event_type, direction, steps, path)
    finally:
        path.discard(key)


def plan_for(face: "PortFace", event_type: type[Event], direction: Direction) -> DeliveryPlan:
    """The cached plan for ``(face, event_type, direction)``, compiling on miss.

    The per-face cache is a ``(generation, {key: plan})`` pair.  On a
    generation mismatch the whole table is replaced, so stale entries for
    event types that are never triggered again cannot accumulate.
    """
    system = face.port.owner.system
    generation = system.generation if system is not None else 0
    cache = face._plans
    if cache is None or cache[0] != generation:
        cache = (generation, {})
        face._plans = cache
    table = cache[1]
    key = (event_type, direction)
    plan = table.get(key)
    if plan is None:
        plan = compile_plan(face, event_type, direction, generation)
        table[key] = plan
    return plan


def execute(face: "PortFace", event: Event, direction: Direction) -> None:
    """Route one event from ``face`` through its compiled plan.

    Inlines :func:`plan_for`'s cache hit (one call frame fewer on every
    routed event); misses fall through to the shared compile path.
    """
    cache = face._plans
    if cache is not None:
        plan = cache[1].get((type(event), direction))
        if plan is not None:
            system = face.port.owner.system
            generation = system.generation if system is not None else 0
            if cache[0] == generation:
                plan.execute(event)
                return
    plan_for(face, type(event), direction).execute(event)


def cached_plans(face: "PortFace") -> Iterator[DeliveryPlan]:
    """Iterate the plans currently cached on ``face`` (introspection)."""
    cache = face._plans
    if cache is not None:
        yield from cache[1].values()
