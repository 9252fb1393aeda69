"""Fig 12: the same system code runs in simulation and real-time modes.

The paper's headline capability: identical component code executes under
(a) deterministic simulation with virtual time, and (b) the multi-core
work-stealing runtime in real time, simply by swapping network/timer
providers and the scheduler.  One :class:`CatsHost` class serves every
deployment: the simulator builds it over the emulator or the loopback
network, whichever its system calls for, and a TCP deployment builds it
over real sockets.  We boot the same CATS cluster all three ways and
assert each converges and serves the same operations.
"""

from __future__ import annotations

import queue
import time

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.cats import (
    CatsClient,
    CatsConfig,
    CatsHost,
    CatsSimulator,
    Experiment,
    GetCmd,
    GetRequest,
    GetResponse,
    JoinNode,
    KeySpace,
    PutCmd,
    PutGet,
    PutRequest,
    PutResponse,
    RemoteApiServer,
)
from repro.network import Address, AioTcpNetwork, LoopbackNetwork, Network
from repro.protocols.bootstrap import BootstrapHost
from repro.simulation import EmulatedNetwork, SimTimer, Simulation
from repro.timer import ThreadTimer

from tests.kit import Scaffold, inject, wait_until

IDS = [7_000, 27_000, 47_000]
CONFIG = CatsConfig(
    key_space=KeySpace(bits=16),
    replication_degree=3,
    stabilize_period=0.2,
    fd_interval=0.4,
    op_timeout=1.0,
)


def providers(host) -> list[type]:
    """The definition classes of a host's children other than its node."""
    return [
        type(child.definition)
        for child in host.core.children
        if child is not host.definition.node.core
    ]


def test_simulation_mode():
    simulation = Simulation(seed=5)
    built = {}

    def build(scaffold):
        built["sim"] = scaffold.create(CatsSimulator, CONFIG)

    simulation.bootstrap(Scaffold, build)
    sim = built["sim"].definition
    for node_id in IDS:
        inject(sim.core.component, Experiment, JoinNode(node_id))
        simulation.run(until=simulation.now() + 1.0)
    simulation.run(until=simulation.now() + 5.0)

    inject(sim.core.component, Experiment, PutCmd(7_000, 1234, "both modes"))
    simulation.run(until=simulation.now() + 2.0)
    inject(sim.core.component, Experiment, GetCmd(47_000, 1234))
    simulation.run(until=simulation.now() + 2.0)

    assert sim.alive_count == 3
    assert sim.stats.puts_completed == 1
    assert sim.stats.gets_completed == 1
    for host in sim.hosts.values():
        assert type(host.definition) is CatsHost
        assert providers(host) == [EmulatedNetwork, SimTimer]


def test_local_interactive_mode():
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=3), fault_policy="record"
    )
    built = {}

    def build(scaffold):
        built["sim"] = scaffold.create(CatsSimulator, CONFIG)

    system.bootstrap(Scaffold, build)
    sim = built["sim"].definition
    for node_id in IDS:
        inject(sim.core.component, Experiment, JoinNode(node_id))
        time.sleep(0.2)
    for host in sim.hosts.values():
        assert type(host.definition) is CatsHost
        assert providers(host) == [LoopbackNetwork, ThreadTimer]
    assert wait_until(
        lambda: all(
            host.definition.node.definition.joined for host in sim.hosts.values()
        )
        and all(
            host.definition.node.definition.abd.definition.my_view is not None
            for host in sim.hosts.values()
        ),
        timeout=30,
    )

    inject(sim.core.component, Experiment, PutCmd(7_000, 1234, "both modes"))
    assert wait_until(lambda: sim.stats.puts_completed == 1, timeout=15)
    inject(sim.core.component, Experiment, GetCmd(47_000, 1234))
    assert wait_until(lambda: sim.stats.gets_completed == 1, timeout=15)
    assert sim.alive_count == 3
    system.shutdown()


class Inbox(ComponentDefinition):
    """Requires PutGet; hands every response to a thread-safe queue."""

    def __init__(self, responses: "queue.Queue") -> None:
        super().__init__()
        self.putget = self.requires(PutGet)
        self._responses = responses
        self.subscribe(self.on_put_response, self.putget)
        self.subscribe(self.on_get_response, self.putget)

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        self._responses.put(response)

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        self._responses.put(response)


def test_tcp_mode():
    """Three hosts over real sockets on 127.0.0.1, the shared bootstrap
    host, a RemoteApiServer beside each host, and two remote clients."""
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=3), fault_policy="record"
    )
    responses: "queue.Queue" = queue.Queue()
    built = {}

    def client(scaffold, server: Address):
        net = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=1))
        remote = scaffold.create(CatsClient, net.definition.address, server)
        inbox = scaffold.create(Inbox, responses)
        scaffold.connect(net.provided(Network), remote.required(Network))
        scaffold.connect(remote.provided(PutGet), inbox.required(PutGet))
        return remote

    def build(scaffold):
        bootstrap = scaffold.create(BootstrapHost, Address("127.0.0.1", 0))
        config = CatsConfig(
            key_space=KeySpace(bits=16),
            replication_degree=3,
            stabilize_period=0.2,
            fd_interval=0.4,
            op_timeout=1.0,
            bootstrap_server=bootstrap.definition.address,
        )
        hosts = []
        for node_id in IDS:
            host = scaffold.create(
                CatsHost,
                Address("127.0.0.1", 0, node_id),
                config,
                AioTcpNetwork,
                ThreadTimer,
            )
            api = scaffold.create(RemoteApiServer, host.definition.address)
            scaffold.connect(host.provided(Network), api.required(Network))
            scaffold.connect(host.provided(PutGet), api.required(PutGet))
            hosts.append(host)
        built["hosts"] = hosts
        built["writer"] = client(scaffold, hosts[0].definition.address)
        built["reader"] = client(scaffold, hosts[2].definition.address)

    system.bootstrap(Scaffold, build)
    try:
        hosts = built["hosts"]
        for host in hosts:
            assert type(host.definition) is CatsHost
            assert providers(host) == [AioTcpNetwork, ThreadTimer]
            assert host.definition.address.port != 0
        assert wait_until(
            lambda: all(
                host.definition.node.definition.joined
                and host.definition.node.definition.abd.definition.my_view
                is not None
                for host in hosts
            ),
            timeout=30,
        )

        def call(remote, request):
            """Retry until a successful response: a view may still be forming."""
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                inject(remote, PutGet, request)
                try:
                    response = responses.get(timeout=5)
                except queue.Empty:
                    continue
                if response.op_id == request.op_id and response.ok:
                    return response
            raise AssertionError(f"no successful response to {request}")

        call(built["writer"], PutRequest(1234, "three modes", op_id=1))
        response = call(built["reader"], GetRequest(1234, op_id=2))
        assert (response.found, response.value) == (True, "three modes")
    finally:
        system.shutdown()


def test_simulation_runs_are_bit_identical():
    """Determinism across whole CATS runs: same seed, same everything."""

    def run(seed: int):
        simulation = Simulation(seed=seed)
        built = {}

        def build(scaffold):
            built["sim"] = scaffold.create(CatsSimulator, CONFIG)

        simulation.bootstrap(Scaffold, build)
        sim = built["sim"].definition
        rng = simulation.system.random
        for node_id in IDS:
            inject(sim.core.component, Experiment, JoinNode(node_id))
            simulation.run(until=simulation.now() + 1.0)
        simulation.run(until=simulation.now() + 5.0)
        for n in range(10):
            key = rng.randrange(1 << 16)
            inject(sim.core.component, Experiment, PutCmd(key, key, n))
            inject(sim.core.component, Experiment, GetCmd(key, key))
            simulation.run(until=simulation.now() + 0.5)
        simulation.run(until=simulation.now() + 5.0)
        return (
            sim.stats.puts_completed,
            sim.stats.gets_completed,
            tuple(sim.stats.op_latencies),
            simulation.events_dispatched,
            simulation.now(),
        )

    first, second, third = run(9), run(9), run(10)
    assert first == second
    assert first != third
