"""The Status abstraction (paper Fig 11: Status ports).

Every functional component may provide a Status port: it accepts
StatusRequests and answers StatusResponses carrying a free-form dict —
consumed by the per-node MonitorClient and the web front-end.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.event import Event
from ...core.port import PortType


@dataclass(frozen=True, slots=True)
class StatusRequest(Event):
    """Ask a component to report its current status."""


@dataclass(frozen=True, slots=True)
class StatusResponse(Event):
    """One component's status snapshot."""

    component: str
    data: dict


@dataclass(frozen=True, slots=True)
class StatusSnapshotEnd(Event):
    """Marks the end of one burst of StatusResponses (snapshot boundary)."""


class Status(PortType):
    """The status-reporting abstraction."""

    positive = (StatusResponse, StatusSnapshotEnd)
    negative = (StatusRequest,)
