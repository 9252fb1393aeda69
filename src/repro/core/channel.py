"""Channels: first-class bindings between complementary port faces.

Channels forward events in both directions in FIFO order (paper section
2.1) and support the four reconfiguration commands of section 2.6:

``hold()``
    stop forwarding; queue events in both directions.
``resume()``
    first flush all queued events in arrival order, then forward as usual.
``unplug(face)``
    detach one end; events flowing toward the missing end are queued so no
    triggered event is ever dropped during reconfiguration.
``plug(face)``
    re-attach the unplugged end to a (possibly different) compatible face.

A channel may carry a *selector*: a predicate over events that must hold for
the event to be forwarded (used e.g. to route per-destination traffic when
several components share a provider).

Compiled plans (:mod:`repro.core.routing`) read a channel from the faces at
its two ends, so every command here first changes the channel and then
invalidates the readers of both ends — and no other face's.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional

from . import observe, routing
from .errors import ConnectionError as KConnectionError
from .event import Direction, Event
from .port import PortFace, check_faces_connectable

Selector = Callable[[Event], bool]


class Channel:
    """A FIFO, bidirectional, reconfigurable link between two port faces.

    Channels are the single largest object population of a big simulation
    (every connect allocates one), so the footprint matters: the class is
    slotted, and the reconfiguration queue — needed only on held/unplugged
    channels — is allocated lazily on first use.
    """

    __slots__ = (
        "port_type",
        "positive_end",
        "negative_end",
        "selector",
        "held",
        "destroyed",
        "_queue",
        "_lock",
    )

    def __init__(
        self,
        face_a: PortFace,
        face_b: PortFace,
        selector: Optional[Selector] = None,
    ) -> None:
        provider, requirer = check_faces_connectable(face_a, face_b)
        self.port_type = provider.port_type
        self.positive_end: Optional[PortFace] = provider  # emits POSITIVE into channel
        self.negative_end: Optional[PortFace] = requirer  # emits NEGATIVE into channel
        self.selector = selector
        self.held = False
        self.destroyed = False
        #: Reconfiguration queue; None until the first event is held back.
        self._queue: Optional[deque[tuple[Event, Direction]]] = None
        self._lock = threading.RLock()
        provider.attach_channel(self)
        requirer.attach_channel(self)
        routing.invalidate(provider, requirer)

    # ------------------------------------------------------------------ ends

    def other_end(self, face: PortFace) -> Optional[PortFace]:
        """The face at the opposite end of ``face`` (None while unplugged)."""
        if face is self.positive_end:
            return self.negative_end
        if face is self.negative_end:
            return self.positive_end
        raise KConnectionError(f"{face!r} is not an end of this channel")

    def connects(self, a: PortFace, b: PortFace) -> bool:
        return {id(self.positive_end), id(self.negative_end)} == {id(a), id(b)}

    # ------------------------------------------------------------- forwarding

    def forward(self, event: Event, direction: Direction, source: PortFace) -> None:
        """Forward an event arriving from ``source`` toward the other end."""
        if self.destroyed:
            return
        if self.selector is not None and not self.selector(event):
            return
        with self._lock:
            destination = self.other_end(source)
            if self.held or destination is None:
                if self._queue is None:
                    self._queue = deque()
                self._queue.append((event, direction))
                return
        # Continue through the destination face's compiled plan (selector
        # channels always stay live steps in plans, so this is where they
        # rejoin one).  Pruning is inherent: an unreachable subtree
        # compiles to an empty plan.
        routing.execute(destination, event, direction)

    def _invalidate(self, detached: Optional[PortFace] = None) -> None:
        """Drop the plans that read this channel, after a change to it: those
        that read either end or ``detached``, an end just unplugged."""
        routing.invalidate(self.positive_end, self.negative_end, detached)

    # --------------------------------------------------------- reconfiguration

    def hold(self) -> None:
        """Stop forwarding and start queueing events in both directions.

        Compiled plans that inlined this channel are dropped, to be
        recompiled with a queue-stop step in its place.
        """
        with self._lock:
            self.held = True
            obs = observe.observer
            if obs is not None:
                obs.channel_op("hold", self, ())
        self._invalidate()

    def resume(self) -> None:
        """Flush queued events in order, then resume normal forwarding."""
        obs = observe.observer
        if obs is not None:
            obs.channel_op("resume", self, ())
        while True:
            with self._lock:
                if not self._queue:
                    self.held = False
                    self._invalidate()  # plans may re-inline this channel
                    return
                event, direction = self._queue.popleft()
                # Flushed events go toward whichever end can now receive
                # them; direction identifies the destination role.
                destination = (
                    self.negative_end
                    if direction is Direction.POSITIVE
                    else self.positive_end
                )
            if destination is None:
                # Still unplugged on that side: put it back and stay held.
                with self._lock:
                    self._queue.appendleft((event, direction))
                    return
            if obs is not None:
                obs.channel_op("release", self, (event,))
            routing.execute(destination, event, direction)

    def unplug(self, face: PortFace) -> None:
        """Detach ``face`` from this channel; traffic toward it is queued."""
        with self._lock:
            if face is self.positive_end:
                self.positive_end = None
            elif face is self.negative_end:
                self.negative_end = None
            else:
                raise KConnectionError(f"{face!r} is not an end of this channel")
            if self in face.channels:
                face.channels.remove(self)
            obs = observe.observer
            if obs is not None:
                obs.channel_op("unplug", self, ())
        self._invalidate(detached=face)

    def plug(self, face: PortFace) -> None:
        """Attach the unplugged end of the channel to ``face``."""
        with self._lock:
            if face.port_type is not self.port_type:
                raise KConnectionError(
                    f"cannot plug {face!r} into a {self.port_type.__name__} channel"
                )
            role = face.emits
            if role is Direction.POSITIVE:
                if self.positive_end is not None:
                    raise KConnectionError("positive end of channel is already plugged")
                self.positive_end = face
            else:
                if self.negative_end is not None:
                    raise KConnectionError("negative end of channel is already plugged")
                self.negative_end = face
            face.attach_channel(self)
            obs = observe.observer
            if obs is not None:
                obs.channel_op(
                    "plug",
                    self,
                    tuple(event for event, _ in (self._queue or ())),
                )
        self._invalidate()

    def destroy(self) -> None:
        """Disconnect both ends and drop the channel (and any queued events)."""
        with self._lock:
            self.destroyed = True
            ends = (self.positive_end, self.negative_end)
            for end in ends:
                if end is not None and self in end.channels:
                    end.channels.remove(self)
            self.positive_end = None
            self.negative_end = None
            self._queue = None
        routing.invalidate(*ends)

    @property
    def queued(self) -> int:
        """Number of events currently queued (held or unplugged)."""
        with self._lock:
            return len(self._queue) if self._queue is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "held" if self.held else ("destroyed" if self.destroyed else "live")
        return f"<Channel {self.port_type.__name__} {state} queued={self.queued}>"


def connect(
    face_a: PortFace,
    face_b: PortFace,
    selector: Optional[Selector] = None,
) -> Channel:
    """Connect two complementary port faces with a new channel."""
    return Channel(face_a, face_b, selector=selector)


def disconnect(face_a: PortFace, face_b: PortFace) -> None:
    """Destroy the channel connecting ``face_a`` and ``face_b``."""
    for channel in tuple(face_a.channels):
        if channel.connects(face_a, face_b):
            channel.destroy()
            return
    raise KConnectionError(f"no channel connects {face_a!r} and {face_b!r}")

