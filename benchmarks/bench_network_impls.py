"""Ablation: pluggable Network implementations (paper section 3).

The paper ships interchangeable MINA / Netty / Grizzly network components;
ours are Loopback (by-reference), Loopback+codec (serialization without
sockets: isolates the codec cost the paper counts as "4x serialization,
4x deserialization") and the aio TCP backend (real sockets + framing +
compression), measured with both the generic pickle codec and the
registered compact codec.
The measured quantity is a full request/response round trip between two
nodes through the Network abstraction.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass

import pytest

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.network import (
    Address,
    AioTcpNetwork,
    CompactCodec,
    FrameCodec,
    LoopbackNetwork,
    Message,
    Network,
    local_address,
    register_compact,
)

from benchmarks.support import print_table

_results: dict[str, float] = {}


@register_compact
@dataclass(frozen=True)
class EchoMsg(Message):
    n: int = 0
    payload: bytes = b""


@register_compact
@dataclass(frozen=True)
class EchoReply(Message):
    n: int = 0
    payload: bytes = b""


class Echoer(ComponentDefinition):
    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.subscribe(self.on_echo, self.network, event_type=EchoMsg)

    def on_echo(self, message: EchoMsg) -> None:
        self.trigger(
            EchoReply(self.address, message.source, n=message.n, payload=message.payload),
            self.network,
        )


class Requester(ComponentDefinition):
    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.replies: "queue.Queue[EchoReply]" = queue.Queue()
        self.subscribe(self.on_reply, self.network, event_type=EchoReply)

    def on_reply(self, message: EchoReply) -> None:
        self.replies.put(message)

    def round_trip(self, to: Address, n: int, payload: bytes, timeout=10.0) -> EchoReply:
        self.trigger(EchoMsg(self.address, to, n=n, payload=payload), self.network)
        return self.replies.get(timeout=timeout)


def build_pair(kind: str):
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )
    built = {}

    def build(scaffold):
        if kind.startswith("aio"):

            def codec():
                if kind == "aio+compact":
                    return FrameCodec(CompactCodec(), adaptive=True)
                return None  # the backend's default codec

            net_a = scaffold.create(
                AioTcpNetwork, Address("127.0.0.1", 0, node_id=1), codec=codec()
            )
            net_b = scaffold.create(
                AioTcpNetwork, Address("127.0.0.1", 0, node_id=2), codec=codec()
            )
            addr_a, addr_b = net_a.definition.address, net_b.definition.address
        else:
            addr_a, addr_b = local_address(1, node_id=1), local_address(2, node_id=2)
            serialize = kind == "loopback+codec"
            net_a = scaffold.create(LoopbackNetwork, addr_a, serialize=serialize)
            net_b = scaffold.create(LoopbackNetwork, addr_b, serialize=serialize)
        requester = scaffold.create(Requester, addr_a)
        echoer = scaffold.create(Echoer, addr_b)
        scaffold.connect(net_a.provided(Network), requester.required(Network))
        scaffold.connect(net_b.provided(Network), echoer.required(Network))
        built.update(requester=requester.definition, echoer_addr=addr_b)

    system.bootstrap(Scaffoldish := _scaffold(build))
    return system, built


def _scaffold(builder):
    class Main(ComponentDefinition):
        def __init__(self) -> None:
            super().__init__()
            builder(self)

    return Main


PAYLOAD = b"x" * 1024


KINDS = [
    "loopback",
    "loopback+codec",
    "aio",
    "aio+compact",
]


@pytest.mark.parametrize("kind", KINDS)
def test_network_round_trip(benchmark, kind):
    system, built = build_pair(kind)
    requester = built["requester"]
    to = built["echoer_addr"]
    import itertools

    counter = itertools.count()

    # Warm up (establish TCP connections, prime caches).
    requester.round_trip(to, next(counter), PAYLOAD)

    def round_trip():
        requester.round_trip(to, next(counter), PAYLOAD)

    benchmark(round_trip)
    _results[kind] = benchmark.stats.stats.mean
    system.shutdown()


@pytest.fixture(scope="module", autouse=True)
def network_report():
    yield
    if len(_results) < len(KINDS):
        return
    print_table(
        "Network implementations — 1 KB request/response round trip",
        ("network", "mean RTT"),
        [(kind, f"{seconds * 1e6:.0f} us") for kind, seconds in _results.items()],
    )
