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
"""

from __future__ import annotations

from typing import Iterator

from repro.core.event import Direction, Event
from repro.core.port import PortFace


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

