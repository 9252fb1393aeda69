"""Ports: bidirectional, typed component interfaces (paper section 2.1).

A *port type* declares which event types may traverse the port in the
positive (indication) and negative (request) direction::

    class Timer(PortType):
        positive = (Timeout,)
        negative = (ScheduleTimeout, CancelTimeout)

A *port instance* belongs to a component and is either *provided* (the
component implements the abstraction) or *required* (the component uses it).
Each instance has two faces:

``inside``
    visible to the owning component (its handlers subscribe here; it
    triggers outgoing events here) and to its children through delegation
    channels.
``outside``
    visible in the parent's scope; sibling channels and parent
    subscriptions (e.g. Fault handlers) attach here.

Events carry a :class:`~repro.core.event.Direction`; the face geometry
determines whether an arriving event is delivered to subscriptions, crosses
the component boundary, or is forwarded along channels — see
:mod:`repro.core.dispatch`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .errors import PortTypeError
from .event import Direction, Event

if TYPE_CHECKING:  # pragma: no cover
    from .channel import Channel
    from .component import ComponentCore
    from .handler import Subscription

_port_ids = itertools.count(1)


class PortType:
    """Base class for port type declarations.

    Subclasses declare ``positive`` and ``negative`` as iterables of event
    types.  There is no subtyping between port types (paper section 2.1);
    event subtyping is honoured when checking whether an event may pass.
    """

    positive: tuple[type[Event], ...] = ()
    negative: tuple[type[Event], ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls.positive = tuple(cls.__dict__.get("positive", cls.positive))
        cls.negative = tuple(cls.__dict__.get("negative", cls.negative))
        for direction_name in ("positive", "negative"):
            for event_type in getattr(cls, direction_name):
                if not (isinstance(event_type, type) and issubclass(event_type, Event)):
                    raise PortTypeError(
                        f"{cls.__name__}.{direction_name} contains {event_type!r}, "
                        f"which is not an Event subclass"
                    )

    @classmethod
    def allowed(cls, direction: Direction, event_type: type[Event]) -> bool:
        """Return True if ``event_type`` may traverse in ``direction``."""
        # Memoized per concrete port type: ``positive``/``negative`` are
        # frozen at class-creation time and the event-type population is
        # finite, so the answer never changes.  ``__dict__`` lookup keeps
        # each subclass's cache separate (a plain attribute would be
        # inherited and poison siblings).
        cache = cls.__dict__.get("_allowed_cache")
        if cache is None:
            cache = {}
            cls._allowed_cache = cache
        key = (direction, event_type)
        verdict = cache.get(key)
        if verdict is None:
            declared = cls.positive if direction is Direction.POSITIVE else cls.negative
            verdict = any(issubclass(event_type, allowed) for allowed in declared)
            cache[key] = verdict
        return verdict

    @classmethod
    def direction_of(
        cls, event_type: type[Event], preferred: Direction
    ) -> Direction | None:
        """Resolve the direction an event travels, preferring ``preferred``.

        Some port types (e.g. Network) allow the same event type in both
        directions; the trigger site's role disambiguates.
        """
        if cls.allowed(preferred, event_type):
            return preferred
        if cls.allowed(preferred.opposite, event_type):
            return preferred.opposite
        return None


class PortFace:
    """One face of a port instance: a subscription and channel attachment point."""

    __slots__ = (
        "port",
        "is_inside",
        "is_control",
        "subscriptions",
        "channels",
        "_plans",
        "_readers",
        "_handlers",
        "incoming",
        "trigger_direction",
    )

    def __init__(self, port: "Port", is_inside: bool) -> None:
        self.port = port
        self.is_inside = is_inside
        self.is_control = port.is_control
        #: Both start as the shared empty tuple and are swapped for a real
        #: list on first attach (see ``attach_subscription`` /
        #: ``attach_channel``).  Most faces never gain a subscription or a
        #: channel, and a big simulation holds hundreds of thousands of
        #: faces — the sentinel saves one list allocation per empty slot.
        #: Read sites only iterate / test truthiness / use ``in``, which a
        #: tuple serves identically.
        self.subscriptions: "list[Subscription] | tuple" = ()
        self.channels: "list[Channel] | tuple" = ()
        #: Compiled-dispatch cache: ``{(event_type, direction):
        #: DeliveryPlan}`` or None; managed by :mod:`repro.core.routing`,
        #: which drops it whole when a face one of its plans read changes.
        #: :func:`dispatch.trigger` files a plan under the bare event class
        #: as well once the port-type check has passed, so a hit on that key
        #: implies "allowed" and "plan compiled" for the trigger direction.
        self._plans: dict | None = None
        #: Root faces of other ports whose cached plans read this face's
        #: subscriptions and channels: None, one face, or a list of them
        #: (see :func:`routing.invalidate`).
        self._readers: "PortFace | list[PortFace] | None" = None
        #: Direction of events delivered to subscriptions at this face —
        #: fixed by the face geometry, precomputed for the dispatch hot path:
        #:
        #: - provided/inside: NEGATIVE (requests entering the provider)
        #: - required/inside: POSITIVE (indications entering the requirer)
        #: - provided/outside: POSITIVE (indications leaving, seen by parent)
        #: - required/outside: NEGATIVE (requests leaving, seen by parent)
        if is_inside:
            self.incoming = (
                Direction.NEGATIVE if port.is_provided else Direction.POSITIVE
            )
        else:
            self.incoming = (
                Direction.POSITIVE if port.is_provided else Direction.NEGATIVE
            )
        #: Direction an event triggered *at this face* travels: the owner
        #: emits outgoing events on the inside face; a parent pushes inward
        #: across the boundary on the outside face.
        self.trigger_direction = (
            self.incoming.opposite if is_inside else port.boundary_inward
        )
        #: Handler-match cache: ``{(core, event_type): (handler, ...)}`` or
        #: None; reset whenever ``subscriptions`` mutates (see
        #: ComponentCore.subscribe/unsubscribe).
        self._handlers: dict | None = None

    def attach_subscription(self, subscription: "Subscription") -> None:
        """Append to ``subscriptions``, materialising the list on first use."""
        current = self.subscriptions
        if type(current) is tuple:
            self.subscriptions = current = []
        current.append(subscription)

    def attach_channel(self, channel: "Channel") -> None:
        """Append to ``channels``, materialising the list on first use."""
        current = self.channels
        if type(current) is tuple:
            self.channels = current = []
        current.append(channel)

    @property
    def owner(self) -> "ComponentCore":
        return self.port.owner

    @property
    def port_type(self) -> type[PortType]:
        return self.port.port_type

    @property
    def emits(self) -> Direction:
        """Direction this face emits *into attached channels* (its channel role).

        A provided port's outside face plays the provider role (emits
        POSITIVE); the same port's inside face plays the *requirer* role
        toward delegation channels (emits NEGATIVE), and symmetrically for
        required ports.
        """
        if self.is_inside:
            return Direction.NEGATIVE if self.port.is_provided else Direction.POSITIVE
        return Direction.POSITIVE if self.port.is_provided else Direction.NEGATIVE

    @property
    def other_face(self) -> "PortFace":
        return self.port.inside if not self.is_inside else self.port.outside

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        side = "inside" if self.is_inside else "outside"
        kind = "provided" if self.port.is_provided else "required"
        return (
            f"<PortFace {self.port.port_type.__name__} {kind}/{side} "
            f"of {self.port.owner.name}>"
        )


class Port:
    """A port instance: a typed, bidirectional gate owned by one component."""

    __slots__ = ("port_type", "owner", "is_provided", "is_control", "inside", "outside", "id")

    def __init__(
        self,
        port_type: type[PortType],
        owner: "ComponentCore",
        is_provided: bool,
        is_control: bool = False,
    ) -> None:
        self.id = next(_port_ids)
        self.port_type = port_type
        self.owner = owner
        self.is_provided = is_provided
        self.is_control = is_control
        self.inside = PortFace(self, is_inside=True)
        self.outside = PortFace(self, is_inside=False)

    @property
    def boundary_inward(self) -> Direction:
        """Direction of events that cross this port outside -> inside."""
        return Direction.NEGATIVE if self.is_provided else Direction.POSITIVE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "provided" if self.is_provided else "required"
        return f"<Port {self.port_type.__name__} {kind} of {self.owner.name}>"


def check_faces_connectable(a: PortFace, b: PortFace) -> tuple[PortFace, PortFace]:
    """Validate a channel connection and return ``(provider_face, requirer_face)``.

    A channel connects two complementary faces of the same port type: one
    that emits POSITIVE events into the channel (provider role) and one that
    emits NEGATIVE (requirer role).
    """
    from .errors import ConnectionError as KConnectionError

    if a.port_type is not b.port_type:
        raise KConnectionError(
            f"cannot connect ports of different types: "
            f"{a.port_type.__name__} and {b.port_type.__name__}"
        )
    roles = {a.emits: a, b.emits: b}
    if set(roles) != {Direction.POSITIVE, Direction.NEGATIVE}:
        raise KConnectionError(
            f"cannot connect two {a.emits.value}-role faces of {a.port_type.__name__}: "
            f"{a!r} and {b!r}"
        )
    return roles[Direction.POSITIVE], roles[Direction.NEGATIVE]
