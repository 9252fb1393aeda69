"""TCP transport resilience: reconnection after a broken connection."""

from __future__ import annotations

from dataclasses import dataclass

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.network import Address, AioTcpNetwork, Message, Network

from tests.kit import Scaffold, wait_until


@dataclass(frozen=True)
class Note(Message):
    n: int = 0


class Peer(ComponentDefinition):
    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.inbox: list[int] = []
        self.subscribe(self.on_note, self.network, event_type=Note)

    def on_note(self, message: Note) -> None:
        self.inbox.append(message.n)

    def send(self, to: Address, n: int) -> None:
        self.trigger(Note(self.address, to, n=n), self.network)


def _pair():
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )
    built = {}

    def build(scaffold):
        nets = {}
        for name in ("a", "b"):
            net = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0))
            peer = scaffold.create(Peer, net.definition.address)
            scaffold.connect(net.provided(Network), peer.required(Network))
            built[name] = peer.definition
            nets[name] = net.definition
        built["nets"] = nets

    system.bootstrap(Scaffold, build)
    return system, built


def _send_until_received(sender, receiver, n, timeout=10.0):
    """Messages racing a dying connection are legitimately lost (TCP gives
    no delivery guarantee across failures); retry like a protocol would."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        sender.send(receiver.address, n)
        if wait_until(lambda: n in receiver.inbox, timeout=0.5):
            return True
    return n in receiver.inbox


def test_messages_flow_again_after_connection_breaks():
    system, built = _pair()
    a, b = built["a"], built["b"]
    a.send(b.address, 1)
    assert wait_until(lambda: b.inbox == [1], timeout=10)

    built["nets"]["a"]._drop_connections()
    # Subsequent traffic dials a fresh connection.
    assert _send_until_received(a, b, 2)
    system.shutdown()


def test_bidirectional_traffic_after_reconnect():
    system, built = _pair()
    a, b = built["a"], built["b"]
    a.send(b.address, 1)
    assert wait_until(lambda: b.inbox == [1], timeout=10)
    b.send(a.address, 10)
    assert wait_until(lambda: a.inbox == [10], timeout=10)

    built["nets"]["b"]._drop_connections()
    assert _send_until_received(b, a, 11)
    assert _send_until_received(a, b, 2)
    system.shutdown()