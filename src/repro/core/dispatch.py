"""Publish-subscribe event dissemination (paper section 2.3).

The propagation rules, given an event with direction ``d`` arriving at a
port face:

1. Deliver the event to every component with a subscription at the face
   whose event type matches and whose incoming direction is ``d``: the
   event goes on the subscriber's FIFO work queue, and its compatible
   handlers run sequentially when it is executed (paper Fig. 7).
2. Continue propagation:

   - at an *outside* face, if ``d`` crosses the boundary inward, recurse on
     the inside face; otherwise forward along the channels attached here;
   - at an *inside* face, if ``d`` is inward-flowing, forward along the
     delegation channels attached here (down to children); otherwise cross
     outward and recurse on the outside face.

As an optimization (explicitly called out by the paper), forwarding along a
channel is skipped when no compatible subscription is transitively reachable
through it.

The rules are not walked per event: :mod:`repro.core.routing` flattens the
walk from a ``(face, event type, direction)`` into a
:class:`~repro.core.routing.DeliveryPlan` that stays cached until a
reconfiguration changes a face it read — the pruning falls out of
compilation, since a subtree without a compatible subscription contributes
no steps — and :func:`trigger` replays that plan.  Handlers are matched at
execution time, not at delivery (Kompics port-queue semantics), so
unsubscribing stops already-delivered but not-yet-executed events from
being handled — the paper's reply-only-once example (§2.2) relies on this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import observe, routing
from .errors import PortTypeError
from .event import Event

if TYPE_CHECKING:  # pragma: no cover
    from .port import PortFace


def trigger(event: Event, face: "PortFace") -> None:
    """Asynchronously send ``event`` through a port face (paper section 2.2).

    Triggering on a port's *inside* face is the owner emitting an event
    (e.g. a provider triggering an indication); triggering on a child's
    *outside* face is the parent pushing an event into the child (e.g.
    ``trigger(Start(), child.control())``).
    """
    obs = observe.observer
    if obs is not None:
        obs.triggered(event)  # sanitizer sealing, race stamping
    # Fast path: a hit on the bare class in the face's plan table means
    # this exact event class already passed the port-type check for this
    # face's trigger direction and has a compiled plan that no
    # reconfiguration has invalidated since — one class-keyed dict probe
    # replaces the allowed() lookup and the ``(class, direction)`` lookup,
    # with no lock and no counter to compare.
    # The verdict of allowed() is static per (port type, direction, class),
    # so skipping it on a hit cannot change which triggers raise.
    table = face._plans
    if table is not None:
        plan = table.get(event.__class__)
        if plan is not None:
            plan.execute(event)
            return
    _trigger_slow(event, face)


def _trigger_slow(event: Event, face: "PortFace") -> None:
    """Checked trigger path: validate the type, compile/cache, dispatch."""
    port = face.port
    # The owner emits on the inside face; a parent pushes inward across the
    # boundary on the outside face — precomputed per face at creation.
    direction = face.trigger_direction
    if not port.port_type.allowed(direction, type(event)):
        raise PortTypeError(
            f"{type(event).__name__} may not be triggered in the "
            f"{direction.value} direction of {port.port_type.__name__} "
            f"(at {face!r})"
        )
    # Compile and publish in one critical section of the plan lock, so an
    # invalidation cannot fall between them and leave a stale entry behind.
    with port.owner.system._plan_lock:
        plan = routing.plan_locked(face, type(event), direction)
        face._plans[type(event)] = plan
    plan.execute(event)
