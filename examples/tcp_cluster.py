#!/usr/bin/env python3
"""CATS over real TCP sockets, with a bootstrap server and a remote client.

The deployment shape of paper Fig 10: a bootstrap server, three CATS nodes
that discover each other through it, and a client that talks to the store
over the network via the remote PutGet API.  Every node runs its own
network component (the Grizzly/Netty stand-in: framing, pluggable codec,
compression) — all in one process here, but each node communicates
exclusively through its own sockets on localhost.  The network component
is :class:`AioTcpNetwork` (write coalescing, batched frames —
docs/internals.md, "Network backend"), as ``python -m repro.cats`` uses.

Run:  python examples/tcp_cluster.py
"""

import time

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.cats import (
    CatsClient,
    CatsConfig,
    CatsNode,
    GetRequest,
    GetResponse,
    KeySpace,
    PutGet,
    PutRequest,
    PutResponse,
    RemoteApiServer,
)
from repro.network import Address, AioTcpNetwork, Network
from repro.protocols.bootstrap import BootstrapServer
from repro.timer import ThreadTimer, Timer


class BootstrapHost(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=0))
        self.address = net.definition.address
        timer = self.create(ThreadTimer)
        server = self.create(BootstrapServer, self.address)
        self.connect(net.provided(Network), server.required(Network))
        self.connect(timer.provided(Timer), server.required(Timer))


class CatsTcpHost(ComponentDefinition):
    """One CATS node over TCP, with the remote API next to it."""

    def __init__(self, node_id: int, bootstrap: Address) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=node_id))
        self.address = net.definition.address
        timer = self.create(ThreadTimer)
        self.node = self.create(
            CatsNode,
            self.address,
            CatsConfig(
                key_space=KeySpace(bits=16),
                replication_degree=3,
                bootstrap_server=bootstrap,
                stabilize_period=0.3,
                fd_interval=0.5,
            ),
        )
        api = self.create(RemoteApiServer, self.address)
        for child in (self.node, api):
            self.connect(net.provided(Network), child.required(Network))
        self.connect(timer.provided(Timer), self.node.required(Timer))
        self.connect(self.node.provided(PutGet), api.required(PutGet))


class ClientHost(ComponentDefinition):
    """A store client in its own 'process' talking TCP to one node."""

    def __init__(self, server: Address) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=999))
        self.address = net.definition.address
        self.client = self.create(CatsClient, self.address, server)
        self.connect(net.provided(Network), self.client.required(Network))
        self.app = self.create(ClientApp)
        self.connect(self.client.provided(PutGet), self.app.required(PutGet))


class ClientApp(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.putget = self.requires(PutGet)
        self.results: dict[int, object] = {}
        self.subscribe(self.on_put_response, self.putget)
        self.subscribe(self.on_get_response, self.putget)

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        # Keyed by op id; bounded by the fixed set of ops this demo issues.
        self.results[response.op_id] = ("put", response.ok)

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        # Keyed by op id; bounded by the fixed set of ops this demo issues.
        self.results[response.op_id] = (
            "get",
            response.found,
            response.value,
        )

    def dump_state(self) -> dict[int, object]:
        return dict(self.results)

    def load_state(self, state) -> None:
        self.results = dict(state)


def wait_for(predicate, timeout=20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# Assembly root: holds child Component handles, which are the unit of
# shard placement — the root moves with its whole subtree (or not at
# all), so section-2.6 migration hooks do not apply.
class Main(ComponentDefinition):  # repro: noqa[P006]
    def __init__(self) -> None:
        super().__init__()
        self.bootstrap = self.create(BootstrapHost)
        self.nodes = [
            self.create(CatsTcpHost, node_id, self.bootstrap.definition.address)
            for node_id in (8_000, 28_000, 48_000)
        ]
        self.client_host = self.create(
            ClientHost, self.nodes[0].definition.address
        )


def main() -> None:
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=4))
    root = system.bootstrap(Main)
    main_def = root.definition
    app = main_def.client_host.definition.app.definition

    print("waiting for 3 TCP nodes to bootstrap and join the ring...")
    ok = wait_for(
        lambda: all(h.definition.node.definition.joined for h in main_def.nodes),
        timeout=30,
    )
    print(f"ring formed: {ok}")
    time.sleep(2.0)

    print("client PUT config:answer = 42 over TCP...")
    app.trigger(PutRequest(key=4242, value=42, op_id=1), app.putget)
    wait_for(lambda: 1 in app.results)
    print(f"  response: {app.results[1]}")

    print("client GET config:answer ...")
    app.trigger(GetRequest(key=4242, op_id=2), app.putget)
    wait_for(lambda: 2 in app.results)
    print(f"  response: {app.results[2]}")

    kind, found, value = app.results[2]
    print(f"\nround trip over real sockets: got {value!r} (found={found})")
    system.shutdown()


#: Root component for aggregate wiring verification
#: (``python -m repro.analysis all --wiring-examples examples``).
WIRING_ROOT = Main


if __name__ == "__main__":
    main()
