"""CATS port types and wire messages.

Two abstractions:

``PutGet``
    the client-facing API (paper Fig 10/11): Put/Get requests in,
    responses out — linearizable via the quorum layer.

``Ring``
    the topology abstraction provided by :class:`~repro.cats.ring.CatsRing`:
    join the ring, look up a key's successor, and learn about neighbor
    changes (which drive replication-group reconfiguration).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.event import Event
from ..core.port import PortType
from ..network.address import Address
from ..network.compact import Value, register_compact
from ..network.message import NetworkControlMessage
from .store import Record

_op_ids = itertools.count(1)


def new_op_id() -> int:
    return next(_op_ids)


# ----------------------------------------------------------- PutGet port


@dataclass(frozen=True, slots=True)
class PutRequest(Event):
    key: int
    value: object
    op_id: int = 0


@dataclass(frozen=True, slots=True)
class GetRequest(Event):
    key: int
    op_id: int = 0


@dataclass(frozen=True, slots=True)
class PutResponse(Event):
    op_id: int
    key: int
    ok: bool
    error: str = ""


@dataclass(frozen=True, slots=True)
class GetResponse(Event):
    op_id: int
    key: int
    found: bool
    value: object = None
    ok: bool = True
    error: str = ""


class PutGet(PortType):
    """The key-value store API abstraction."""

    positive = (PutResponse, GetResponse)
    negative = (PutRequest, GetRequest)


# -------------------------------------------------------------- Ring port


@dataclass(frozen=True, slots=True)
class RingJoin(Event):
    """Join the ring via ``seeds`` (empty: create a fresh ring)."""

    seeds: tuple[Address, ...] = ()


@dataclass(frozen=True, slots=True)
class RingLookup(Event):
    """Resolve the node responsible for ``key`` via the ring itself."""

    key: int
    op_id: int = 0


@dataclass(frozen=True, slots=True)
class RingLookupResponse(Event):
    key: int
    responsible: Address
    op_id: int = 0
    hops: int = 0


@dataclass(frozen=True, slots=True)
class RingReady(Event):
    """The node completed its join and owns a range."""


@dataclass(frozen=True, slots=True)
class RingNeighbors(Event):
    """Current predecessor and successor list (None predecessor: unknown)."""

    predecessor: Address | None
    successors: tuple[Address, ...]


class Ring(PortType):
    """The ring-topology abstraction."""

    positive = (RingLookupResponse, RingReady, RingNeighbors)
    negative = (RingJoin, RingLookup)


# ------------------------------------------------------- ring wire messages


@register_compact
@dataclass(frozen=True, slots=True)
class FindSuccessor(NetworkControlMessage):
    """Locate the successor of ``key``; reply goes straight to ``reply_to``."""

    key: int = 0
    reply_to: Address | None = None
    op_id: int = 0
    hops: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class FoundSuccessor(NetworkControlMessage):
    key: int = 0
    responsible: Address | None = None
    predecessor: Address | None = None
    successors: tuple[Address, ...] = ()
    op_id: int = 0
    hops: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class GetNeighbors(NetworkControlMessage):
    """Stabilization probe to the successor."""


@register_compact
@dataclass(frozen=True, slots=True)
class GetNeighborsReply(NetworkControlMessage):
    predecessor: Address | None = None
    successors: tuple[Address, ...] = ()


@register_compact
@dataclass(frozen=True, slots=True)
class Notify(NetworkControlMessage):
    """Tell the successor we believe we are its predecessor."""


# ----------------------------------------------------- quorum wire messages


@register_compact
@dataclass(frozen=True, slots=True)
class GroupRequest(NetworkControlMessage):
    """Coordinator -> primary: which view serves ``key``?"""

    key: int = 0
    op_id: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class GroupResponse(NetworkControlMessage):
    key: int = 0
    op_id: int = 0
    primary: Address | None = None
    view_id: int = 0
    members: tuple[Address, ...] = ()


@register_compact
@dataclass(frozen=True, slots=True)
class GroupBusy(NetworkControlMessage):
    """The primary's view is reconfiguring; retry shortly."""

    key: int = 0
    op_id: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class GroupWrongNode(NetworkControlMessage):
    """This node is not the primary for ``key`` (stale routing)."""

    key: int = 0
    op_id: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class ReadRequest(NetworkControlMessage):
    key: int = 0
    op_id: int = 0
    primary: Address | None = None
    view_id: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class ReadResponse(NetworkControlMessage):
    key: int = 0
    op_id: int = 0
    found: bool = False
    timestamp: int = 0
    writer: int = 0
    value: Value = None


@register_compact
@dataclass(frozen=True, slots=True)
class WriteRequest(NetworkControlMessage):
    key: int = 0
    op_id: int = 0
    primary: Address | None = None
    view_id: int = 0
    timestamp: int = 0
    writer: int = 0
    value: Value = None


@register_compact
@dataclass(frozen=True, slots=True)
class WriteResponse(NetworkControlMessage):
    key: int = 0
    op_id: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class ViewRejected(NetworkControlMessage):
    """Replica refused an operation: view mismatch or fenced range."""

    key: int = 0
    op_id: int = 0


# ------------------------------------------------ view reconfiguration wire


@register_compact
@dataclass(frozen=True, slots=True)
class ViewPrepare(NetworkControlMessage):
    """Primary -> members: fence the range, report your data."""

    view_id: int = 0
    range_start: int = 0
    range_end: int = 0
    members: tuple[Address, ...] = ()


@register_compact
@dataclass(frozen=True, slots=True)
class ViewPrepareAck(NetworkControlMessage):
    view_id: int = 0
    records: tuple[Record, ...] = ()


@register_compact
@dataclass(frozen=True, slots=True)
class ViewPrepareReject(NetworkControlMessage):
    """A newer overlapping view outranks this prepare's ballot."""

    view_id: int = 0
    current_view_id: int = 0
    current_primary_id: int = 0


@register_compact
@dataclass(frozen=True, slots=True)
class ViewCommit(NetworkControlMessage):
    """Primary -> members: install the merged state, activate the view."""

    view_id: int = 0
    range_start: int = 0
    range_end: int = 0
    members: tuple[Address, ...] = ()
    records: tuple[Record, ...] = ()


@register_compact
@dataclass(frozen=True, slots=True)
class ViewCommitAck(NetworkControlMessage):
    view_id: int = 0
