"""The recursive §2.3 dissemination walk, as a side-effect-free oracle.

:func:`walk` applies the propagation rules of :mod:`repro.core.dispatch`
to one event, re-deriving the route from the live topology on every call
(no plans, no caches), and *yields* what the runtime has to do instead of
doing it:

- ``("deliver", owner, face)`` — one ``ComponentCore.receive_event`` call;
- ``("queue", channel)`` — the event stops at a held or unplugged channel
  and is queued there (paper §2.6: never dropped).

The paper's pruning of channels that lead to no compatible subscription is
an optimisation of this walk, not part of it: a pruned branch yields
nothing either way.

:func:`check_cached_plans` is the comparison both users of the oracle make:
every plan cached on every face of every live component, expanded through
its live steps, against the walk from that face.
"""

from __future__ import annotations

from typing import Iterator

from repro.core import routing
from repro.core.event import Direction, Event
from repro.core.port import PortFace

from tests.kit import Ping, Pong


def walk(face: PortFace, event: Event, direction: Direction) -> Iterator[tuple]:
    """Propagate ``event`` from ``face``; yield deliveries and queue-stops."""
    if direction is face.incoming:
        # One delivery per subscribed owner, in subscription order.
        owners: dict = {}
        for subscription in tuple(face.subscriptions):
            if issubclass(type(event), subscription.event_type):
                owners.setdefault(subscription.owner)
        for owner in owners:
            yield ("deliver", owner, face)
    port = face.port
    inward = direction is port.boundary_inward
    if face.is_inside != inward:
        # Outside face and inward-flowing, or inside face and outward-flowing:
        # cross the component boundary.
        yield from walk(port.inside if inward else port.outside, event, direction)
    else:
        for channel in tuple(face.channels):
            yield from _forward(channel, event, direction, face)


def _forward(channel, event: Event, direction: Direction, source: PortFace) -> Iterator[tuple]:
    if channel.destroyed:
        return
    if channel.selector is not None and not channel.selector(event):
        return
    destination = channel.other_end(source)
    if channel.held or destination is None:
        yield ("queue", channel)
        return
    yield from walk(destination, event, direction)



def replay_plan(face: PortFace, event: Event, direction: Direction, plan=None) -> Iterator[tuple]:
    """What executing the cached plan for ``event`` at ``face`` does, in
    :func:`walk`'s vocabulary (``plan``: the cached object itself, when the
    caller took it from the face's table)."""
    if plan is None:
        plan = routing.plan_for(face, type(event), direction)
    if plan.deliveries is not None:
        for receive, target in plan.deliveries:
            yield ("deliver", receive.__self__, target)
        return
    for tag, a, b in plan.steps:
        if tag == routing.DELIVER:
            yield ("deliver", a, b)
            continue
        channel, source = a, b  # live step: Channel.forward at event time
        if channel.destroyed or (channel.selector is not None and not channel.selector(event)):
            continue
        destination = channel.other_end(source)
        if channel.held or destination is None:
            yield ("queue", channel)
        else:
            yield from replay_plan(destination, event, direction)


def faces_of(core) -> Iterator[PortFace]:
    for port in (core.control_port, *core.ports.values()):
        yield port.inside
        yield port.outside


def sample_events(event_type: type[Event]) -> tuple[Event, ...]:
    """Instances to replay a cached plan with: one per outcome of the
    parity selectors the tests use, or the one a field-less type has."""
    if issubclass(event_type, (Ping, Pong)):
        return (event_type(0), event_type(1))
    return (event_type(),)  # life-cycle events on control ports and the like


def check_cached_plans(system) -> int:
    """Assert every cached plan in ``system`` routes as the walk does;
    returns how many plans were compared."""
    compared = 0
    for core in tuple(system.components):
        for face in faces_of(core):
            # trigger's bare-class keys only ever alias the keyed plans.
            for key, plan in tuple((face._plans or {}).items()):
                if type(key) is not tuple:
                    assert face._plans[key, face.trigger_direction] is plan, face
            for plan in routing.cached_plans(face):
                compared += 1
                for event in sample_events(plan.event_type):
                    assert list(replay_plan(face, event, plan.direction, plan)) == list(
                        walk(face, event, plan.direction)
                    ), (face, plan)
    return compared
