"""AioTcpNetwork: the selector-based non-blocking TCP backend.

Exercises the same contract the blocking oracle
(``tests/reference/tcp.py``) pins — round trip, duplex connection reuse,
per-pair ordering, dead-host resilience — plus what is new in the aio
backend: write coalescing counters, the bounded outbox policies, idle
reaping, reconnects, and interop with the oracle over one wire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler
from repro.network import (
    Address,
    AioTcpNetwork,
    FrameCodec,
    Message,
    Network,
)
from repro.protocols.monitor.port import (
    Status,
    StatusRequest,
    StatusResponse,
    StatusSnapshotEnd,
)

from tests.kit import Scaffold, wait_until
from tests.reference.tcp import TcpNetwork


@dataclass(frozen=True)
class Note(Message):
    n: int = 0
    body: bytes = b""


class Peer(ComponentDefinition):
    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.inbox: list[int] = []
        self.messages: list[Note] = []
        self.subscribe(self.on_note, self.network, event_type=Note)

    def on_note(self, message: Note) -> None:
        self.inbox.append(message.n)
        self.messages.append(message)

    def send(self, to: Address, n: int, body: bytes = b"") -> None:
        self.trigger(Note(self.address, to, n=n, body=body), self.network)


class StatusProbe(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.status = self.requires(Status)
        self.snapshots: list[tuple[str, dict]] = []
        self.ended = 0
        self.subscribe(self.on_response, self.status, event_type=StatusResponse)
        self.subscribe(self.on_end, self.status, event_type=StatusSnapshotEnd)

    def on_response(self, response: StatusResponse) -> None:
        self.snapshots.append((response.component, response.data))

    def on_end(self, _end: StatusSnapshotEnd) -> None:
        self.ended += 1

    def ask(self) -> None:
        self.trigger(StatusRequest(), self.status)


def _system():
    return ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )


def _pair(system, factory_a=AioTcpNetwork, factory_b=AioTcpNetwork, **kwargs):
    built = {}

    def build(scaffold):
        nets = {}
        for name, factory in (("a", factory_a), ("b", factory_b)):
            net = scaffold.create(factory, Address("127.0.0.1", 0), **kwargs)
            peer = scaffold.create(Peer, net.definition.address)
            scaffold.connect(net.provided(Network), peer.required(Network))
            built[name] = peer.definition
            nets[name] = net.definition
        built["nets"] = nets

    system.bootstrap(Scaffold, build)
    return built


def _send_until_received(sender, receiver, n, timeout=10.0):
    """Frames racing a dying connection are legitimately lost; retry like
    a protocol would (same convention as the TCP reconnect suite)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        sender.send(receiver.address, n)
        if wait_until(lambda: n in receiver.inbox, timeout=0.5):
            return True
    return n in receiver.inbox


# ------------------------------------------------------------ basic contract


def test_aio_round_trip_and_duplex_reuse():
    system = _system()
    built = _pair(system)
    a, b = built["a"], built["b"]
    a.send(b.address, 1)
    assert wait_until(lambda: b.inbox == [1], timeout=10)
    # The reply must ride the accepted connection back (hello handshake).
    b.send(a.address, 2)
    assert wait_until(lambda: a.inbox == [2], timeout=10)
    net_b = built["nets"]["b"]
    assert net_b.status_snapshot()["connections"] == 1
    system.shutdown()


def test_aio_self_send_short_circuits():
    system = _system()
    built = _pair(system)
    a = built["a"]
    a.send(a.address, 7)
    assert wait_until(lambda: a.inbox == [7], timeout=10)
    assert built["nets"]["a"].status_snapshot()["bytes_sent"] == 0
    system.shutdown()


def test_aio_ordering_and_coalescing_under_burst():
    system = _system()
    built = _pair(system)
    a, b = built["a"], built["b"]
    for n in range(300):
        a.send(b.address, n)
    assert wait_until(lambda: len(b.inbox) == 300, timeout=10)
    assert b.inbox == list(range(300))
    snapshot = built["nets"]["a"].status_snapshot()
    # The burst outpaces the flusher, so frames must have been folded
    # into multi-message batches: strictly fewer sendmsg batches than
    # messages proves coalescing actually engaged.
    assert snapshot["batched_messages"] >= 300
    assert snapshot["batches"] < snapshot["batched_messages"]
    system.shutdown()


def test_aio_batches_are_byte_bounded_under_large_burst():
    # Regression: coalescing must bound a batch by accumulated bytes, not
    # just message count.  A queued burst whose combined size exceeds
    # codec.max_frame used to make batch_buffers raise on the loop
    # thread, tearing down the whole backend — nothing delivered again.
    system = _system()
    built = _pair(
        system,
        codec=FrameCodec(compress_threshold=None, max_frame=1024 * 1024),
    )
    a, b = built["a"], built["b"]
    body = b"\x00" * (200 * 1024)  # 10 x 200KB queued >> 1MB max_frame
    for n in range(10):
        a.send(b.address, n, body=body)
    assert wait_until(lambda: b.inbox == list(range(10)), timeout=20)
    # The loop thread must still be alive and flushing afterwards.
    a.send(b.address, 99)
    assert wait_until(lambda: 99 in b.inbox, timeout=10)
    assert built["nets"]["a"].status_snapshot()["dropped_frames"] == 0
    system.shutdown()


def test_aio_send_to_dead_host_does_not_crash():
    system = _system()
    built = _pair(system, connect_timeout=0.2)
    built["a"].send(Address("127.0.0.1", 1), 99)  # port 1: connection refused
    assert wait_until(lambda: True)
    assert not system.unhandled_faults
    system.shutdown()


def test_aio_send_to_own_host_port_delivers_by_reference():
    """Two nodes behind one network (different node ids, one listener): a
    send between them takes the short-circuit and arrives as the very
    object sent — the in-process semantics the shard harness relies on."""
    system = _system()
    built = {}

    def build(scaffold):
        net = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0, 1))
        address = net.definition.address
        for name, node_id in (("a", 1), ("b", 2)):
            peer = scaffold.create(Peer, address.with_id(node_id))
            scaffold.connect(net.provided(Network), peer.required(Network))
            built[name] = peer.definition
        built["net"] = net.definition

    system.bootstrap(Scaffold, build)
    a, b = built["a"], built["b"]
    note = Note(a.address, b.address, n=5)
    a.trigger(note, a.network)
    assert wait_until(lambda: 5 in b.inbox, timeout=10)
    assert next(m for m in b.messages if m.n == 5) is note
    assert built["net"].status_snapshot()["bytes_sent"] == 0
    system.shutdown()


# ------------------------------------------------------------ bounded outbox


def test_aio_drop_oldest_counts_dropped_frames():
    system = _system()
    built = _pair(system, outbound_limit=4, connect_timeout=0.2)
    a = built["a"]
    nowhere = Address("127.0.0.1", 1)  # refused: the outbox never drains
    for n in range(10):
        a.send(nowhere, n)
    net_a = built["nets"]["a"]
    assert wait_until(lambda: net_a.status_snapshot()["dropped_frames"] >= 6)
    snapshot = net_a.status_snapshot()
    assert snapshot["queued_frames"] <= 4
    system.shutdown()


def test_blocking_tcp_drop_oldest_counts_dropped_frames():
    """The oracle backend has the same bounded outbox: wedge its writer
    against a listener that never reads and watch the queue shed frames."""
    import os
    import socket

    sink = socket.create_server(("127.0.0.1", 0))
    sink_port = sink.getsockname()[1]
    system = _system()
    built = _pair(system, factory_a=TcpNetwork, factory_b=TcpNetwork, outbound_limit=2)
    a = built["a"]
    try:
        body = os.urandom(2 * 1024 * 1024)  # incompressible: fills kernel buffers
        for n in range(10):
            a.send(Address("127.0.0.1", sink_port), n, body=body)
        net_a = built["nets"]["a"]
        assert wait_until(
            lambda: net_a.status_snapshot()["dropped_frames"] >= 1, timeout=15
        )
    finally:
        sink.close()
        system.shutdown()


# ------------------------------------------------------------- status port


def test_aio_status_port_responds():
    system = _system()
    built = {}

    def build(scaffold):
        net = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0))
        peer = scaffold.create(Peer, net.definition.address)
        probe = scaffold.create(StatusProbe)
        scaffold.connect(net.provided(Network), peer.required(Network))
        scaffold.connect(net.provided(Status), probe.required(Status))
        built.update(peer=peer.definition, probe=probe.definition)

    system.bootstrap(Scaffold, build)
    built["peer"].send(built["peer"].address, 1)  # self-send: bumps counters
    assert wait_until(lambda: built["peer"].inbox == [1], timeout=10)
    built["probe"].ask()
    assert wait_until(lambda: built["probe"].ended == 1, timeout=10)
    (name, details) = built["probe"].snapshots[0]
    assert name == "aio-network"
    for field in (
        "sent",
        "received",
        "dropped_frames",
        "queued_frames",
        "connections",
        "batches",
        "reconnects",
        "reaped",
    ):
        assert field in details
    system.shutdown()


# ---------------------------------------------------------- pool lifecycle


def test_aio_idle_connections_are_reaped():
    system = _system()
    built = _pair(system, idle_timeout=0.2)
    a, b = built["a"], built["b"]
    a.send(b.address, 1)
    assert wait_until(lambda: b.inbox == [1], timeout=10)
    net_a = built["nets"]["a"]
    net_b = built["nets"]["b"]
    assert wait_until(
        lambda: net_a.status_snapshot()["connections"] == 0, timeout=10
    )
    # Both ends share the 0.2s timeout, so either side may reap first; the
    # loser just observes EOF.  At least one end must have counted a reap.
    assert wait_until(
        lambda: net_a.status_snapshot()["reaped"]
        + net_b.status_snapshot()["reaped"]
        >= 1,
        timeout=10,
    )
    # Traffic after the reap dials a fresh connection transparently.
    assert _send_until_received(a, b, 2)
    system.shutdown()


def test_aio_reconnects_after_connection_breaks():
    system = _system()
    built = _pair(system)
    a, b = built["a"], built["b"]
    a.send(b.address, 1)
    assert wait_until(lambda: b.inbox == [1], timeout=10)

    built["nets"]["a"]._drop_connections()
    assert _send_until_received(a, b, 2)
    # And the duplex path still works after re-established traffic.
    assert _send_until_received(b, a, 20)
    system.shutdown()


# -------------------------------------------------------------- interop


def test_aio_talks_to_blocking_tcp_backend():
    """Both backends share one wire format, batches included."""
    system = _system()
    built = _pair(system, factory_a=AioTcpNetwork, factory_b=TcpNetwork)
    a, b = built["a"], built["b"]
    for n in range(100):
        a.send(b.address, n)  # aio coalesces; blocking reader must unbatch
    assert wait_until(lambda: len(b.inbox) == 100, timeout=10)
    assert b.inbox == list(range(100))
    b.send(a.address, 1000)  # blocking → aio plain frames
    assert wait_until(lambda: a.inbox == [1000], timeout=10)
    system.shutdown()


def test_aio_delivers_interned_addresses():
    system = _system()
    built = _pair(system)
    a, b = built["a"], built["b"]
    a.send(b.address, 1)
    assert wait_until(lambda: 1 in b.inbox, timeout=10)
    message = next(m for m in b.messages if m.n == 1)
    assert message.source is message.source.intern()
    assert message.destination is message.destination.intern()
    system.shutdown()
