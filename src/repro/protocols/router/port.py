"""The Router abstraction (paper Fig 11: Router port).

Resolves a ring key to the address of the node currently responsible for
it.  The one-hop implementation answers from its local membership view;
consumers must treat answers as hints and revalidate with the authoritative
ring (which CATS' quorum views do).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.event import Event
from ...core.port import PortType
from ...network.address import Address


@dataclass(frozen=True, slots=True)
class Resolve(Event):
    """Resolve the node responsible for ``key``."""

    key: int
    request_id: int = 0


@dataclass(frozen=True, slots=True)
class Resolved(Event):
    """``node`` is (believed to be) responsible for ``key``."""

    key: int
    node: Address
    request_id: int = 0


@dataclass(frozen=True, slots=True)
class ResolveFailed(Event):
    """No candidate is known for ``key`` (empty membership view)."""

    key: int
    request_id: int = 0


class Router(PortType):
    """The key-routing service abstraction."""

    positive = (Resolved, ResolveFailed)
    negative = (Resolve,)
