"""CatsNode: the full per-node component architecture (paper Fig 11).

Behind a single provided PutGet port, a CatsNode composes:

- PingFailureDetector        (failure detection)
- CyclonOverlay              (node sampling)
- OneHopRouter               (key routing)
- CatsRing                   (ring topology, successor lists)
- ConsistentAbd              (view-fenced quorum reads/writes)
- BootstrapClient            (optional: join via a bootstrap server)
- MonitorClient              (optional: ship status to a monitor server)

The composite hides all event-driven control flow from clients — the
encapsulation argument of the paper — and delegates its provided PutGet and
Ring ports to the inner components.  The node joins the ring when started:
either through the bootstrap service or from explicitly configured seeds.
:class:`CatsHost` deploys one node on a given network and timer (Fig 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.component import ComponentDefinition
from ..core.handler import handles
from ..core.lifecycle import Start
from ..network.address import Address
from ..network.message import Network
from ..protocols.bootstrap.client import BootstrapClient
from ..protocols.bootstrap.events import (
    Bootstrap,
    BootstrapDone,
    BootstrapRequest,
    BootstrapResponse,
)
from ..protocols.failure_detector.ping_fd import PingFailureDetector
from ..protocols.failure_detector.port import FailureDetector
from ..protocols.monitor.client import MonitorClient
from ..protocols.monitor.port import (
    Status,
    StatusRequest,
    StatusResponse,
    StatusSnapshotEnd,
)
from ..protocols.overlay.cyclon import CyclonOverlay
from ..protocols.overlay.port import IntroducePeers, NodeSampling, Sample
from ..protocols.router.one_hop import OneHopRouter
from ..protocols.router.port import Router
from ..protocols.web.port import Web
from ..timer.port import ScheduleTimeout, Timeout, Timer, new_timeout_id
from .abd import ConsistentAbd
from .events import PutGet, Ring, RingJoin, RingNeighbors, RingReady
from .key import KeySpace
from .ring import CatsRing


@dataclass(frozen=True, slots=True)
class RejoinTick(Timeout):
    """Re-join attempt after the local ring collapsed (e.g. a partition)."""


class NodeStatusProvider(ComponentDefinition):
    """Provides Status for a CatsNode: reports every subcomponent's snapshot."""

    def __init__(self, snapshot) -> None:
        super().__init__()
        self.port = self.provides(Status)
        self._snapshot = snapshot
        self.subscribe(self.on_request, self.port)

    @handles(StatusRequest)
    def on_request(self, _request: StatusRequest) -> None:
        for name, data in self._snapshot():
            self.trigger(StatusResponse(name, data), self.port)
        self.trigger(StatusSnapshotEnd(), self.port)


@dataclass(frozen=True, slots=True)
class CatsConfig:
    """Tunables for one CATS node."""

    key_space: KeySpace = field(default_factory=lambda: KeySpace(bits=32))
    replication_degree: int = 3
    successor_list_size: int = 4
    stabilize_period: float = 0.5
    fd_interval: float = 1.0
    cyclon_period: float = 1.0
    op_timeout: float = 2.0
    max_retries: int = 20
    bootstrap_server: Optional[Address] = None
    monitor_server: Optional[Address] = None
    seeds: tuple[Address, ...] = ()


class CatsNode(ComponentDefinition):
    """Provides PutGet and Ring; requires Network and Timer."""

    def __init__(self, address: Address, config: Optional[CatsConfig] = None) -> None:
        super().__init__()
        if address.node_id is None:
            raise ValueError("CatsNode requires an address with a node_id")
        self.address = address
        self.config = config or CatsConfig()
        cfg = self.config

        self.putget = self.provides(PutGet)
        self.ring_port = self.provides(Ring)
        self.status_port = self.provides(Status)
        self.web_port = self.provides(Web)
        self.network = self.requires(Network)
        self.timer = self.requires(Timer)

        # ----------------------------------------------------- subcomponents
        self.fd = self.create(PingFailureDetector, address, interval=cfg.fd_interval)
        self.cyclon = self.create(
            CyclonOverlay, address, period=cfg.cyclon_period
        )
        self.router = self.create(OneHopRouter, address)
        self.ring = self.create(
            CatsRing,
            address,
            cfg.key_space,
            successor_list_size=cfg.successor_list_size,
            stabilize_period=cfg.stabilize_period,
        )
        self.abd = self.create(
            ConsistentAbd,
            address,
            cfg.key_space,
            replication_degree=cfg.replication_degree,
            op_timeout=cfg.op_timeout,
            max_retries=cfg.max_retries,
        )
        self.bootstrap_client = None
        if cfg.bootstrap_server is not None:
            self.bootstrap_client = self.create(
                BootstrapClient, address, cfg.bootstrap_server
            )
        self.monitor_client = None
        if cfg.monitor_server is not None:
            self.monitor_client = self.create(
                MonitorClient, address, cfg.monitor_server
            )
        self.status_provider = self.create(NodeStatusProvider, self._status_snapshot)
        from .webapp import CatsWebApplication

        self.webapp = self.create(CatsWebApplication, address)

        # ------------------------------------------------------------ wiring
        for child in filter(None, (
            self.fd, self.cyclon, self.ring, self.abd,
            self.bootstrap_client, self.monitor_client,
        )):
            if (Network, False) in child.core.ports:
                self.connect(self.network, child.required(Network))
            if (Timer, False) in child.core.ports:
                self.connect(self.timer, child.required(Timer))

        self.connect(self.fd.provided(FailureDetector), self.ring.required(FailureDetector))
        self.connect(self.fd.provided(FailureDetector), self.router.required(FailureDetector))
        self.connect(self.cyclon.provided(NodeSampling), self.router.required(NodeSampling))
        self.connect(self.router.provided(Router), self.abd.required(Router))
        self.connect(self.ring.provided(Ring), self.abd.required(Ring))
        # Delegate the node-level PutGet, Ring and Status ports inward.
        self.connect(self.abd.provided(PutGet), self.putget)
        self.connect(self.ring.provided(Ring), self.ring_port)
        self.connect(self.status_provider.provided(Status), self.status_port)
        self.connect(self.status_provider.provided(Status), self.webapp.required(Status))
        self.connect(self.webapp.provided(Web), self.web_port)
        if self.monitor_client is not None:
            self.connect(
                self.status_provider.provided(Status),
                self.monitor_client.required(Status),
            )

        # ----------------------------------------------------- orchestration
        self.joined = False
        self._known_peers: tuple[Address, ...] = ()
        self._ring_successors: tuple[Address, ...] = ()
        self._rejoin_pending = False
        self.subscribe(self.on_start, self.control)
        self.subscribe(self.on_ring_ready, self.ring.provided(Ring))
        self.subscribe(self.on_ring_neighbors, self.ring.provided(Ring))
        self.subscribe(self.on_sample, self.cyclon.provided(NodeSampling))
        self.subscribe(self.on_rejoin_tick, self.timer)
        if self.bootstrap_client is not None:
            self.subscribe(
                self.on_bootstrap_response, self.bootstrap_client.provided(Bootstrap)
            )

    # ------------------------------------------------------------------ join

    @handles(Start)
    def on_start(self, _event: Start) -> None:
        if self.bootstrap_client is not None:
            self.trigger(BootstrapRequest(), self.bootstrap_client.provided(Bootstrap))
        else:
            self._join(self.config.seeds)

    @handles(BootstrapResponse)
    def on_bootstrap_response(self, response: BootstrapResponse) -> None:
        if not self.joined:
            self._join(response.peers)

    def _join(self, seeds) -> None:
        seeds = tuple(seeds)
        if seeds:
            self.trigger(IntroducePeers(seeds), self.cyclon.provided(NodeSampling))
        self.trigger(RingJoin(seeds), self.ring.provided(Ring))

    @handles(RingReady)
    def on_ring_ready(self, _event: RingReady) -> None:
        self.joined = True
        if self.bootstrap_client is not None:
            self.trigger(BootstrapDone(), self.bootstrap_client.provided(Bootstrap))

    @handles(RingNeighbors)
    def on_ring_neighbors(self, event: RingNeighbors) -> None:
        """Feed ring neighbors into the overlay so routing tables converge;
        detect a ring collapse (no successors) and schedule a re-join."""
        self._ring_successors = event.successors  # already excludes self
        peers = tuple(
            node
            for node in (event.predecessor, *event.successors)
            if node is not None and node != self.address
        )
        if peers:
            self.trigger(IntroducePeers(peers), self.cyclon.provided(NodeSampling))
        elif self.joined:
            self._schedule_rejoin()

    @handles(Sample)
    def on_sample(self, sample: Sample) -> None:
        if sample.nodes:
            self._known_peers = sample.nodes
        # A collapsed ring heals once gossip shows peers again — and so
        # does a node whose initial join exhausted its lookup retries
        # (the ring gives up on a seed set; only a fresh RingJoin
        # restarts it).
        if not self.joined or not self._ring_successors:
            self._schedule_rejoin()

    def _schedule_rejoin(self) -> None:
        if self._rejoin_pending or not self._known_peers:
            return
        self._rejoin_pending = True
        self.trigger(
            ScheduleTimeout(1.0, RejoinTick(new_timeout_id())), self.timer
        )

    @handles(RejoinTick)
    def on_rejoin_tick(self, _tick: RejoinTick) -> None:
        self._rejoin_pending = False
        if (not self.joined or not self._ring_successors) and self._known_peers:
            self.trigger(RingJoin(self._known_peers), self.ring.provided(Ring))
            self._schedule_rejoin()  # keep trying until the ring heals

    # ---------------------------------------------------------------- status

    def _status_snapshot(self) -> list[tuple[str, dict]]:
        return [
            (f"{name}@{self.address.node_id}", definition.status())
            for name, definition in (
                ("ring", self.ring.definition),
                ("abd", self.abd.definition),
                ("router", self.router.definition),
                ("cyclon", self.cyclon.definition),
                ("fd", self.fd.definition),
            )
        ]


class CatsHost(ComponentDefinition):
    """One machine: a network, a timer and a CatsNode (paper Fig 12).

    ``network`` and ``timer`` are the provider classes; swapping them is
    the whole difference between a deployment kind: ``EmulatedNetwork`` +
    ``SimTimer`` under simulation, ``LoopbackNetwork`` + ``ThreadTimer``
    in one real-time process, ``AioTcpNetwork`` + ``ThreadTimer`` over
    sockets.  The address is the one the network ends up with (an aio
    listener binds port 0).  The node's Ring, PutGet and Web ports and
    the network's Network port are delegated to the host's boundary, so
    whatever sits beside a host (a ``RemoteApiServer``, a ``WebServer``,
    the simulator) wires to the host as a unit.
    """

    def __init__(
        self,
        address: Address,
        config: CatsConfig,
        network: type[ComponentDefinition],
        timer: type[ComponentDefinition],
    ) -> None:
        super().__init__()
        net = self.create(network, address)
        self.address = net.definition.address
        clock = self.create(timer)
        self.node = self.create(CatsNode, self.address, config)
        self.connect(net.provided(Network), self.node.required(Network))
        self.connect(clock.provided(Timer), self.node.required(Timer))
        self.connect(net.provided(Network), self.provides(Network))
        for port_type in (Ring, PutGet, Web):
            self.connect(self.node.provided(port_type), self.provides(port_type))
