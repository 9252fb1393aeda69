"""Differential suite: AioTcpNetwork against the blocking TcpNetwork oracle.

The blocking backend is kept verbatim as the reference implementation;
this suite drives the same seeded workload through both and pins
behavioural equivalence where the transport contract is deterministic:

- per-(sender, receiver)-pair delivery order is exactly the send order;
- the delivered payloads decode identically between the two backends
  (dataclass equality covers every field);
- after connections are severed mid-run, both backends re-establish and
  deliver retried traffic (frames racing the break may be lost by either
  backend — TCP gives no delivery guarantee across failures).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler
from repro.network import Address, AioTcpNetwork, Message, Network, TcpNetwork

from tests.kit import Scaffold, wait_until

NODES = 3
SEED = 0xC0FFEE
OPERATIONS = 120


@dataclass(frozen=True)
class Datum(Message):
    n: int = 0
    payload: bytes = b""


class Recorder(ComponentDefinition):
    """Records deliveries keyed by the sender's node_id."""

    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.by_sender: dict[int, list[tuple[int, bytes]]] = {}
        self.subscribe(self.on_datum, self.network, event_type=Datum)

    def on_datum(self, message: Datum) -> None:
        self.by_sender.setdefault(message.source.node_id, []).append(
            (message.n, message.payload)
        )

    def send(self, to: Address, n: int, payload: bytes) -> None:
        self.trigger(Datum(self.address, to, n=n, payload=payload), self.network)


def _workload(seed: int, operations: int):
    """Seeded script of (sender, receiver, op index, payload) tuples."""
    rng = random.Random(seed)
    script = []
    for n in range(operations):
        sender = rng.randrange(NODES)
        receiver = rng.choice([i for i in range(NODES) if i != sender])
        kind = rng.randrange(3)
        if kind == 0:
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 32)))
        elif kind == 1:
            payload = b"differential " * rng.randrange(10, 120)
        else:
            payload = rng.randbytes(rng.randrange(200, 1500))
        script.append((sender, receiver, n, payload))
    return script


def _cluster(factory):
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )
    built = {"nodes": [], "nets": []}

    def build(scaffold):
        for node_id in range(NODES):
            net = scaffold.create(factory, Address("127.0.0.1", 0, node_id=node_id))
            node = scaffold.create(Recorder, net.definition.address)
            scaffold.connect(net.provided(Network), node.required(Network))
            built["nodes"].append(node.definition)
            built["nets"].append(net.definition)

    system.bootstrap(Scaffold, build)
    return system, built


def _run_workload(factory, script):
    """Drive the script through a fresh cluster; return per-pair deliveries."""
    system, built = _cluster(factory)
    nodes = built["nodes"]
    expected: dict[tuple[int, int], int] = {}
    try:
        for sender, receiver, n, payload in script:
            nodes[sender].send(nodes[receiver].address, n, payload)
            expected[(sender, receiver)] = expected.get((sender, receiver), 0) + 1

        def all_delivered():
            for (sender, receiver), count in expected.items():
                got = nodes[receiver].by_sender.get(sender, [])
                if len(got) != count:
                    return False
            return True

        assert wait_until(all_delivered, timeout=20), (
            f"{factory.__name__}: not every pair drained; got "
            f"{ {k: len(nodes[k[1]].by_sender.get(k[0], [])) for k in expected} }"
        )
        return {
            (sender, receiver): list(nodes[receiver].by_sender[sender])
            for (sender, receiver) in expected
        }
    finally:
        system.shutdown()


def test_differential_seeded_workload_matches_oracle():
    """Same script, both backends: identical per-pair sequences + payloads."""
    script = _workload(SEED, OPERATIONS)

    per_pair_sent: dict[tuple[int, int], list[tuple[int, bytes]]] = {}
    for sender, receiver, n, payload in script:
        per_pair_sent.setdefault((sender, receiver), []).append((n, payload))

    oracle = _run_workload(TcpNetwork, script)
    aio = _run_workload(AioTcpNetwork, script)

    # Each backend delivers exactly the sent per-pair sequence, in order.
    assert oracle == per_pair_sent
    assert aio == per_pair_sent
    # And therefore decode-identical results between the backends.
    assert aio == oracle


@pytest.mark.parametrize("factory", [TcpNetwork, AioTcpNetwork])
def test_differential_ordering_under_burst(factory):
    """A one-pair burst stays FIFO through either backend (coalescing on
    the aio side must not reorder)."""
    system, built = _cluster(factory)
    nodes = built["nodes"]
    try:
        for n in range(200):
            nodes[0].send(nodes[1].address, n, b"x" * (n % 64))
        assert wait_until(
            lambda: len(nodes[1].by_sender.get(0, [])) == 200, timeout=20
        )
        got = [n for n, _payload in nodes[1].by_sender[0]]
        assert got == list(range(200))
    finally:
        system.shutdown()


def _kill_connections(net) -> None:
    if hasattr(net, "_drop_connections"):  # aio backend: loop-thread hook
        net._drop_connections()
        return
    with net._lock:
        connections = list(net._connections.values())
    for connection in connections:
        connection.close()


def _send_until_received(sender, receiver, n, timeout=10.0):
    deadline = time.monotonic() + timeout
    marker = (n, b"retry")
    while time.monotonic() < deadline:
        sender.send(receiver.address, n, b"retry")
        if wait_until(
            lambda: marker in receiver.by_sender.get(sender.address.node_id, []),
            timeout=0.5,
        ):
            return True
    return marker in receiver.by_sender.get(sender.address.node_id, [])


@pytest.mark.parametrize("factory", [TcpNetwork, AioTcpNetwork])
def test_differential_recovery_after_connection_break(factory):
    """Both backends survive a severed connection pool identically: traffic
    before the break arrives, retried traffic after the break arrives."""
    system, built = _cluster(factory)
    nodes, nets = built["nodes"], built["nets"]
    try:
        nodes[0].send(nodes[1].address, 1, b"before")
        assert wait_until(
            lambda: (1, b"before") in nodes[1].by_sender.get(0, []), timeout=10
        )

        _kill_connections(nets[0])

        assert _send_until_received(nodes[0], nodes[1], 2)
        # Duplex traffic also recovers (fresh hello re-binds the pool).
        assert _send_until_received(nodes[1], nodes[0], 3)
    finally:
        system.shutdown()


@pytest.mark.parametrize("factory", [TcpNetwork, AioTcpNetwork])
def test_differential_good_frames_before_a_bad_one_are_delivered(factory):
    """good, good, bad in one segment: both backends deliver the two good
    messages (the blocking reader frame by frame, the aio parser as the
    decoded prefix of the chunk), then close the connection."""
    import socket

    system, built = _cluster(factory)
    node, net = built["nodes"][0], built["nets"][0]
    sender = Address("127.0.0.1", 1, node_id=7)
    oversized = (net.codec.max_frame + 1).to_bytes(4, "big") + b"\x00"
    segment = b"".join(
        net.codec.frame(Datum(sender, node.address, n=n, payload=b"good"))
        for n in (1, 2)
    ) + oversized
    try:
        with socket.create_connection(
            (node.address.host, node.address.port), timeout=10
        ) as client:
            client.sendall(segment)
            assert wait_until(
                lambda: node.by_sender.get(7) == [(1, b"good"), (2, b"good")],
                timeout=10,
            )
            client.settimeout(10)
            try:
                assert client.recv(1) == b""  # closed by the backend
            except ConnectionResetError:
                pass
    finally:
        system.shutdown()
