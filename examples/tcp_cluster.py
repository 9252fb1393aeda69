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

import sys
import time

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.cats import (
    CatsClient,
    CatsConfig,
    CatsHost,
    GetRequest,
    GetResponse,
    KeySpace,
    PutGet,
    PutRequest,
    PutResponse,
    RemoteApiServer,
)
from repro.network import Address, AioTcpNetwork, Network
from repro.protocols.bootstrap import BootstrapHost
from repro.timer import ThreadTimer


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
        self.bootstrap = self.create(BootstrapHost, Address("127.0.0.1", 0))
        config = CatsConfig(
            key_space=KeySpace(bits=16),
            replication_degree=3,
            bootstrap_server=self.bootstrap.definition.address,
            stabilize_period=0.3,
            fd_interval=0.5,
        )
        self.nodes = []
        for node_id in (8_000, 28_000, 48_000):
            host = self.create(
                CatsHost,
                Address("127.0.0.1", 0, node_id=node_id),
                config,
                AioTcpNetwork,
                ThreadTimer,
            )
            # The remote API sits beside each host, on the host's ports.
            api = self.create(RemoteApiServer, host.definition.address)
            self.connect(host.provided(Network), api.required(Network))
            self.connect(host.provided(PutGet), api.required(PutGet))
            self.nodes.append(host)
        self.client_host = self.create(
            ClientHost, self.nodes[0].definition.address
        )


def main() -> int:
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
    return 0 if (found, value) == (True, 42) else 1


#: Root component for aggregate wiring verification
#: (``python -m repro.analysis all --wiring-examples examples``).
WIRING_ROOT = Main


if __name__ == "__main__":
    sys.exit(main())
