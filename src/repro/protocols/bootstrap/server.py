"""BootstrapServer: maintains the list of online nodes of a system instance.

Nodes that have joined send periodic keep-alives; the server evicts nodes
whose keep-alives stop (paper section 4.1).  :class:`BootstrapHost` is the
deployed service: the server on its own TCP endpoint and thread timer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.component import ComponentDefinition
from ...core.handler import handles
from ...core.lifecycle import Start
from ...network.address import Address
from ...network.aio import AioTcpNetwork
from ...network.message import Network
from ...timer.port import SchedulePeriodicTimeout, Timeout, Timer, new_timeout_id
from ...timer.thread_timer import ThreadTimer
from .events import GetPeersRequest, GetPeersResponse, KeepAlive


@dataclass(frozen=True, slots=True)
class EvictionSweep(Timeout):
    """Internal periodic eviction check."""


class BootstrapServer(ComponentDefinition):
    """Requires Network and Timer; answers GetPeers, evicts silent nodes."""

    def __init__(
        self,
        address: Address,
        eviction_timeout: float = 10.0,
        sweep_interval: float = 2.0,
        creation_grant_timeout: float = 10.0,
    ) -> None:
        super().__init__()
        self.address = address
        self.eviction_timeout = eviction_timeout
        self.sweep_interval = sweep_interval
        self.creation_grant_timeout = creation_grant_timeout
        self.network = self.requires(Network)
        self.timer = self.requires(Timer)
        self._last_seen: dict[Address, float] = {}
        self._creation_grant: tuple[Address, float] | None = None
        self.requests_served = 0

        self.subscribe(self.on_get_peers, self.network, event_type=GetPeersRequest)
        self.subscribe(self.on_keep_alive, self.network, event_type=KeepAlive)
        self.subscribe(self.on_sweep, self.timer)
        self.subscribe(self.on_start, self.control)

    @handles(Start)
    def on_start(self, _event: Start) -> None:
        self.trigger(
            SchedulePeriodicTimeout(
                self.sweep_interval,
                self.sweep_interval,
                EvictionSweep(new_timeout_id()),
            ),
            self.timer,
        )

    @handles(GetPeersRequest)
    def on_get_peers(self, request: GetPeersRequest) -> None:
        self.requests_served += 1
        peers = [a for a in self._last_seen if a != request.source]
        self.system.random.shuffle(peers)
        create_ring = False
        if not peers:
            # Grant ring creation to exactly one concurrent first joiner;
            # the others retry until the creator shows up in the peer list.
            grant = self._creation_grant
            now = self.now()
            if grant is None or grant[0] == request.source or (
                now - grant[1] > self.creation_grant_timeout
            ):
                self._creation_grant = (request.source, now)
                create_ring = True
        self.trigger(
            GetPeersResponse(
                self.address,
                request.source,
                peers=tuple(peers[: request.max_peers]),
                create_ring=create_ring,
            ),
            self.network,
        )

    @handles(KeepAlive)
    def on_keep_alive(self, message: KeepAlive) -> None:
        self._last_seen[message.source] = self.now()

    @handles(EvictionSweep)
    def on_sweep(self, _timeout: EvictionSweep) -> None:
        horizon = self.now() - self.eviction_timeout
        for node, seen in tuple(self._last_seen.items()):
            if seen < horizon:
                del self._last_seen[node]

    # ------------------------------------------------------------- inspection

    @property
    def alive_nodes(self) -> tuple[Address, ...]:
        return tuple(self._last_seen)

    def status(self) -> dict:
        return {
            "alive": len(self._last_seen),
            "requests_served": self.requests_served,
        }

    # ---------------------------------------------------- section-2.6 handover

    def dump_state(self) -> dict:
        return {
            "last_seen": dict(self._last_seen),
            "creation_grant": self._creation_grant,
            "requests_served": self.requests_served,
        }

    def load_state(self, state: dict) -> None:
        self._last_seen = dict(state["last_seen"])
        self._creation_grant = state["creation_grant"]
        self.requests_served = state["requests_served"]


class BootstrapHost(ComponentDefinition):
    """A BootstrapServer on its own AioTcpNetwork and ThreadTimer.

    ``address`` is where to listen; port 0 binds a free port, and
    ``self.address`` is the address the listener ended up with.
    """

    def __init__(self, address: Address) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, address)
        self.address = net.definition.address
        timer = self.create(ThreadTimer)
        server = self.create(BootstrapServer, self.address)
        self.connect(net.provided(Network), server.required(Network))
        self.connect(timer.provided(Timer), server.required(Timer))
