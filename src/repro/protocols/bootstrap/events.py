"""The Bootstrap abstraction and its wire messages (paper section 4.1)."""

from __future__ import annotations

from dataclasses import dataclass

from ...core.event import Event
from ...core.port import PortType
from ...network.address import Address
from ...network.compact import register_compact
from ...network.message import NetworkControlMessage


# ------------------------------------------------------------- port events


@dataclass(frozen=True, slots=True)
class BootstrapRequest(Event):
    """Ask the bootstrap service for a set of alive peers."""


@dataclass(frozen=True, slots=True)
class BootstrapResponse(Event):
    """Alive peers returned by the bootstrap server."""

    peers: tuple[Address, ...]


@dataclass(frozen=True, slots=True)
class BootstrapDone(Event):
    """The node finished joining; start advertising it via keep-alives."""


class Bootstrap(PortType):
    """The bootstrap service abstraction."""

    positive = (BootstrapResponse,)
    negative = (BootstrapRequest, BootstrapDone)


# ---------------------------------------------------------------- messages


@register_compact
@dataclass(frozen=True, slots=True)
class GetPeersRequest(NetworkControlMessage):
    max_peers: int = 16


@register_compact
@dataclass(frozen=True, slots=True)
class GetPeersResponse(NetworkControlMessage):
    """Alive peers; with none, ``create_ring`` says whether the requester
    may create a fresh ring (granted to one node at a time, so concurrent
    first joiners cannot each start a disjoint ring)."""

    peers: tuple[Address, ...] = ()
    create_ring: bool = False


@register_compact
@dataclass(frozen=True, slots=True)
class KeepAlive(NetworkControlMessage):
    """Periodic liveness beacon from a joined node to the server."""
