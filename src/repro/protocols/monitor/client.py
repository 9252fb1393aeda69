"""MonitorClient: per-node distributed-tracing client (paper section 4.1).

Periodically polls the node's components over the Status abstraction and
ships the aggregated snapshot to the monitoring server as a MonitorReport
message.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.component import ComponentDefinition
from ...core.handler import handles
from ...core.lifecycle import Start
from ...network.address import Address
from ...network.message import Network, NetworkControlMessage
from ...timer.port import SchedulePeriodicTimeout, Timeout, Timer, new_timeout_id
from .port import Status, StatusRequest, StatusResponse


@dataclass(frozen=True, slots=True)
# Low-rate telemetry (one report per period per node); the pickle
# fallback is fine off the hot path, so no compact registration.
class MonitorReport(NetworkControlMessage):  # repro: noqa[D006]
    """One node's status snapshot, shipped to the monitor server."""

    statuses: tuple[tuple[str, tuple], ...] = ()

    def as_dict(self) -> dict[str, dict]:
        return {component: dict(items) for component, items in self.statuses}


@dataclass(frozen=True, slots=True)
class ReportTick(Timeout):
    """Internal reporting period."""


def freeze_statuses(statuses: dict[str, dict]) -> tuple[tuple[str, tuple], ...]:
    """Statuses must be hashable to ride inside a frozen Message."""
    return tuple(
        (component, tuple(sorted(data.items())))
        for component, data in sorted(statuses.items())
    )


class MonitorClient(ComponentDefinition):
    """Requires Status (fan-in from local components), Network, Timer."""

    def __init__(
        self,
        address: Address,
        server: Address,
        period: float = 2.0,
    ) -> None:
        super().__init__()
        self.address = address
        self.server = server
        self.period = period
        self.status = self.requires(Status)
        self.network = self.requires(Network)
        self.timer = self.requires(Timer)
        self._latest: dict[str, dict] = {}
        self.reports_sent = 0

        self.subscribe(self.on_start, self.control)
        self.subscribe(self.on_status, self.status)
        self.subscribe(self.on_tick, self.timer)

    @handles(Start)
    def on_start(self, _event: Start) -> None:
        self.trigger(
            SchedulePeriodicTimeout(
                self.period, self.period, ReportTick(new_timeout_id())
            ),
            self.timer,
        )

    @handles(StatusResponse)
    def on_status(self, response: StatusResponse) -> None:
        # Keyed by component name and overwritten per snapshot: bounded by
        # this node's component population, not by the event rate.
        self._latest[response.component] = dict(response.data)

    @handles(ReportTick)
    def on_tick(self, _tick: ReportTick) -> None:
        # Ship what we gathered last round, then poll for the next one.
        if self._latest:
            self.trigger(
                MonitorReport(
                    self.address, self.server, statuses=freeze_statuses(self._latest)
                ),
                self.network,
            )
            self.reports_sent += 1
        self.trigger(StatusRequest(), self.status)

    # ---------------------------------------------------- section-2.6 handover

    def dump_state(self) -> dict:
        return {
            "latest": {name: dict(data) for name, data in self._latest.items()},
            "reports_sent": self.reports_sent,
        }

    def load_state(self, state: dict) -> None:
        self._latest = {name: dict(data) for name, data in state["latest"].items()}
        self.reports_sent = state["reports_sent"]
