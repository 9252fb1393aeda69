"""Network implementations: loopback routing, TCP sockets, serialization."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import ComponentDefinition, ComponentSystem, Start, WorkStealingScheduler, handles
from repro.network import (
    Address,
    AioTcpNetwork,
    FrameCodec,
    LoopbackNetwork,
    Message,
    Network,
    PickleCodec,
    SerializationError,
    local_address,
)

from tests.kit import Scaffold, make_system, settle, wait_until


@dataclass(frozen=True)
class Hello(Message):
    text: str = ""


class Node(ComponentDefinition):
    """A minimal networked node: records messages, can send."""

    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.inbox: list[Hello] = []
        self.subscribe(self.on_hello, self.network, event_type=Hello)

    def on_hello(self, message: Hello) -> None:
        self.inbox.append(message)

    def say(self, to: Address, text: str) -> None:
        self.trigger(Hello(source=self.address, destination=to, text=text), self.network)


# ------------------------------------------------------------------ loopback


def _loopback_pair(system):
    a, b = local_address(1, node_id=1), local_address(2, node_id=2)
    built = {}

    def build(scaffold):
        for key, addr in (("a", a), ("b", b)):
            net = scaffold.create(LoopbackNetwork, addr)
            node = scaffold.create(Node, addr)
            scaffold.connect(net.provided(Network), node.required(Network))
            built[key] = node.definition

    system.bootstrap(Scaffold, build)
    return built["a"], built["b"]


def test_loopback_routes_by_destination():
    system = make_system()
    node_a, node_b = _loopback_pair(system)
    settle(system)
    node_a.say(node_b.address, "hi b")
    node_b.say(node_a.address, "hi a")
    settle(system)
    assert [m.text for m in node_b.inbox] == ["hi b"]
    assert [m.text for m in node_a.inbox] == ["hi a"]
    system.shutdown()


def test_loopback_drops_messages_to_unknown_destinations():
    system = make_system()
    node_a, _node_b = _loopback_pair(system)
    settle(system)
    node_a.say(local_address(99), "void")
    settle(system)
    hub = system.services["loopback_hub"]
    assert hub.dropped == 1
    system.shutdown()


# --------------------------------------------------------------------- codec


def test_frame_codec_round_trip_small_and_large():
    codec = FrameCodec(compress_threshold=128)
    small = Hello(local_address(1), local_address(2), "x")
    big = Hello(local_address(1), local_address(2), "y" * 10_000)
    assert codec.unframe(codec.frame(small)) == small
    framed_big = codec.frame(big)
    assert codec.unframe(framed_big) == big
    # Highly repetitive payload must actually compress.
    assert len(framed_big) < 10_000


def test_frame_codec_rejects_oversized_frames():
    codec = FrameCodec(compress_threshold=None, max_frame=64)
    big = Hello(local_address(1), local_address(2), "z" * 1000)
    with pytest.raises(SerializationError):
        codec.frame(big)


def test_pickle_codec_rejects_non_message_payload():
    import pickle

    codec = PickleCodec()
    with pytest.raises(SerializationError):
        codec.decode(pickle.dumps({"not": "a message"}))


def test_frame_codec_detects_truncation():
    codec = FrameCodec()
    frame = codec.frame(Hello(local_address(1), local_address(2), "abc"))
    with pytest.raises(SerializationError):
        codec.unframe(frame[:-2])


# ----------------------------------------------------------------------- tcp


def test_tcp_network_round_trip_on_localhost():
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )
    built = {}

    def build(scaffold):
        net_a = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=1))
        net_b = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=2))
        addr_a = net_a.definition.address
        addr_b = net_b.definition.address
        node_a = scaffold.create(Node, addr_a)
        node_b = scaffold.create(Node, addr_b)
        scaffold.connect(net_a.provided(Network), node_a.required(Network))
        scaffold.connect(net_b.provided(Network), node_b.required(Network))
        built.update(a=node_a.definition, b=node_b.definition)

    system.bootstrap(Scaffold, build)
    assert wait_until(lambda: built["a"] is not None)
    built["a"].say(built["b"].address, "over tcp")
    assert wait_until(lambda: len(built["b"].inbox) == 1, timeout=10)
    # Reply reuses the inbound connection.
    built["b"].say(built["a"].address, "reply")
    assert wait_until(lambda: len(built["a"].inbox) == 1, timeout=10)
    assert built["a"].inbox[0].text == "reply"
    system.shutdown()


def test_tcp_send_to_dead_host_does_not_crash():
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )
    built = {}

    def build(scaffold):
        net = scaffold.create(
            AioTcpNetwork, Address("127.0.0.1", 0, node_id=1), connect_timeout=0.2
        )
        node = scaffold.create(Node, net.definition.address)
        scaffold.connect(net.provided(Network), node.required(Network))
        built["node"] = node.definition

    system.bootstrap(Scaffold, build)
    built["node"].say(Address("127.0.0.1", 1), "nobody home")  # port 1: refused
    assert wait_until(lambda: True)
    assert not system.unhandled_faults
    system.shutdown()


def test_tcp_message_ordering_per_connection():
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )
    built = {}

    def build(scaffold):
        net_a = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0))
        net_b = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0))
        node_a = scaffold.create(Node, net_a.definition.address)
        node_b = scaffold.create(Node, net_b.definition.address)
        scaffold.connect(net_a.provided(Network), node_a.required(Network))
        scaffold.connect(net_b.provided(Network), node_b.required(Network))
        built.update(a=node_a.definition, b=node_b.definition)

    system.bootstrap(Scaffold, build)
    for n in range(50):
        built["a"].say(built["b"].address, f"m{n}")
    assert wait_until(lambda: len(built["b"].inbox) == 50, timeout=10)
    assert [m.text for m in built["b"].inbox] == [f"m{n}" for n in range(50)]
    system.shutdown()
