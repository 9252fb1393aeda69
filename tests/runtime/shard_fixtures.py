"""Planted shard-safety defects and clean twins for the shard harness.

Each fixture here is a single-address-space hazard made runnable (named
after the retired static rule that described it): in one shard it behaves
one way, across the shard cut it observably diverges — its clean twin not.

- :class:`GlobalCountingSink` is a live P001: handlers mutate a
  module-global counter, so the "total" the program computes depends on
  how many processes the components landed in.
- :class:`IdentitySink` with ``dedup="identity"`` is a live P004:
  deduplication by ``id(event)`` works in-process (a send behind the
  same network is delivered by reference) and silently stops working
  once the sender is a codec round-trip away.

Every fixture node sits on an ordinary ``AioTcpNetwork``; an address a
fixture needs from another worker arrives as a ``call`` argument.

Builders in this module are referenced by ``"module:callable"`` spec
strings from :mod:`repro.runtime.shard` workers — they run in freshly
spawned interpreters, which is exactly what makes the module-global
divergence honest.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.core.component import ComponentDefinition
from repro.core.handler import handles
from repro.network.address import Address
from repro.network.aio import AioTcpNetwork
from repro.network.compact import CompactCodec, register_compact
from repro.network.message import Network, NetworkControlMessage
from repro.network.serialization import FrameCodec

#: The P001 hazard on display: module state every in-process component
#: shares, and every process duplicates.
GLOBAL_COUNT = 0


def _network(parent: ComponentDefinition, node_id: int):
    """An ``AioTcpNetwork`` on a free loopback port, compact frames on the wire."""
    return parent.create(
        AioTcpNetwork,
        Address("127.0.0.1", 0, node_id),
        codec=FrameCodec(codec=CompactCodec()),
    )


@register_compact
@dataclass(frozen=True, slots=True)
class Poke(NetworkControlMessage):
    seq: int = 0


# ----------------------------------------------------------- P001 fixture


class PokeSource(ComponentDefinition):
    """Sends ``count`` pokes to a peer when kicked from outside."""

    def __init__(self, address: Address, count: int) -> None:
        super().__init__()
        self.address = address
        self.count = count
        self.network = self.requires(Network)

    def kick(self, peer: Address) -> None:
        for seq in range(self.count):
            self.trigger(Poke(self.address, peer, seq=seq), self.network)


class GlobalCountingSink(ComponentDefinition):
    """Counts pokes twice: in module state (P001) and on the instance."""

    def __init__(self, use_global: bool) -> None:
        super().__init__()
        self.use_global = use_global
        self.received = 0
        self.network = self.requires(Network)
        self.subscribe(self.on_poke, self.network, event_type=Poke)

    @handles(Poke)
    def on_poke(self, _poke: Poke) -> None:
        if self.use_global:
            global GLOBAL_COUNT
            GLOBAL_COUNT += 1
        self.received += 1


class PokeHost(ComponentDefinition):
    """One fixture node: its own network + source + sink."""

    def __init__(self, node_id: int, count: int, use_global: bool) -> None:
        super().__init__()
        net = _network(self, node_id)
        self.address = net.definition.address
        self.source = self.create(PokeSource, self.address, count)
        self.sink = self.create(GlobalCountingSink, use_global)
        for child in (self.source, self.sink):
            self.connect(net.provided(Network), child.required(Network))


def poke_worker(context, node_ids, count, use_global) -> None:
    """Host ``node_ids``; ``kick(peers)`` makes each node poke
    ``peers[node_id]``, an address the coordinator looked up."""
    system = context.make_system()
    hosts = {}
    for node_id in node_ids:
        host = system.bootstrap(PokeHost, node_id, count, use_global).definition
        hosts[node_id] = host
        context.register_address(host.address)

    def kick(peers) -> None:
        for node_id, host in hosts.items():
            host.source.definition.kick(peers[node_id])

    context.register_call("kick", kick)
    context.register_call("global_count", lambda: GLOBAL_COUNT)
    context.register_call(
        "received",
        lambda: {nid: h.sink.definition.received for nid, h in hosts.items()},
    )


# ----------------------------------------------------------- P004 fixture


class TwicePokeSource(ComponentDefinition):
    """Triggers the *same* Poke object twice — at-least-once delivery as it
    looks to a sender that retries with the event it still holds."""

    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)

    def send_twice(self, peer: Address) -> None:
        poke = Poke(self.address, peer, seq=0)
        self.trigger(poke, self.network)
        self.trigger(poke, self.network)


class IdentitySink(ComponentDefinition):
    """Deduplicates pokes — by object identity (P004) or by seq (clean)."""

    def __init__(self, dedup: str) -> None:
        super().__init__()
        assert dedup in ("identity", "seq")
        self.dedup = dedup
        self.processed = 0
        self._seen: set[int] = set()
        # Processed pokes stay alive: the id() of a freed one can be handed
        # to the next decoded frame, and the planted bug would then vanish
        # on whichever run the two threads interleave that way.
        self._kept: list[Poke] = []
        self.network = self.requires(Network)
        self.subscribe(self.on_poke, self.network, event_type=Poke)

    @handles(Poke)
    def on_poke(self, poke: Poke) -> None:
        key = id(poke) if self.dedup == "identity" else poke.seq
        if key in self._seen:
            return
        self._seen.add(key)
        self._kept.append(poke)
        self.processed += 1


class IdentityHost(ComponentDefinition):
    """The sender (node 1) and/or the receiver (node 2) behind one network.

    Hosting both, a poke to the receiver takes the network's same-host:port
    short-circuit and arrives by reference, the in-process semantics.
    """

    def __init__(self, host_sender: bool, host_receiver: bool, dedup: str) -> None:
        super().__init__()
        net = _network(self, 2 if host_receiver else 1)
        self.address = net.definition.address
        self.source = self.sink = None
        if host_sender:
            self.source = self.create(TwicePokeSource, self.address.with_id(1))
            self.connect(net.provided(Network), self.source.required(Network))
        if host_receiver:
            self.sink = self.create(IdentitySink, dedup)
            self.connect(net.provided(Network), self.sink.required(Network))


def identity_worker(context, host_sender, host_receiver, dedup) -> None:
    """Host the sender and/or the receiver; ``kick(receiver)`` sends."""
    system = context.make_system()
    host = system.bootstrap(IdentityHost, host_sender, host_receiver, dedup).definition
    context.register_address(host.address)
    if host_sender:
        context.register_call("kick", host.source.definition.send_twice)
    if host_receiver:
        context.register_call("processed", lambda: host.sink.definition.processed)


def rpc_worker(context, build_delay: float = 0.0) -> None:
    """Calls for the pipe protocol itself: ``value`` counts its calls and
    answers the first one a second late, ``boom`` raises, ``exit`` kills
    the worker process mid-call."""
    time.sleep(build_delay)
    calls = []

    def value() -> int:
        calls.append(None)
        if len(calls) == 1:
            time.sleep(1.0)
        return len(calls)

    context.register_call("value", value)
    context.register_call("boom", lambda: 1 // 0)
    context.register_call("exit", lambda: os._exit(3))


def failing_worker(context) -> None:
    raise RuntimeError("planted build failure")


# ---------------------------------------------- deterministic trace fixture


def traced_cats_fingerprint(seed: int) -> tuple[str, int]:
    """A seeded CATS simulation under a Tracer: join 3 nodes, run a small
    workload, return ``(fingerprint, entries recorded)``.

    Virtual time plus a fixed seed makes the executed trace a pure
    function of this code — the basis of the harness's single-shard
    differential: running it inside a spawned shard worker must produce
    the byte-identical fingerprint.
    """
    from repro.cats import (
        CatsConfig,
        CatsSimulator,
        Experiment,
        GetCmd,
        JoinNode,
        KeySpace,
        PutCmd,
    )
    from repro.runtime.trace import Tracer
    from repro.simulation import Simulation
    from tests.kit import Scaffold, inject

    tracer = Tracer(capacity=1_000_000)
    simulation = Simulation(seed=seed)
    simulation.system.tracer = tracer
    built = {}

    def build(scaffold: Scaffold) -> None:
        built["cats"] = scaffold.create(
            CatsSimulator,
            CatsConfig(
                key_space=KeySpace(bits=16),
                replication_degree=3,
                stabilize_period=0.25,
                fd_interval=0.5,
                op_timeout=1.0,
            ),
        )

    simulation.bootstrap(Scaffold, build)
    cats = built["cats"]
    for offset, node_id in enumerate((100, 20_000, 40_000)):
        simulation.schedule(
            0.5 + offset * 1.5,
            lambda nid=node_id: inject(cats, Experiment, JoinNode(nid)),
        )
    simulation.schedule(8.0, lambda: inject(cats, Experiment, PutCmd(100, 7, "a")))
    simulation.schedule(9.0, lambda: inject(cats, Experiment, GetCmd(20_000, 7)))
    simulation.schedule(10.0, lambda: inject(cats, Experiment, PutCmd(40_000, 7, "b")))
    simulation.schedule(11.0, lambda: inject(cats, Experiment, GetCmd(100, 7)))
    simulation.run(until=15.0)
    result = (tracer.fingerprint(), tracer.recorded)
    simulation.shutdown()
    return result


def fingerprint_worker(context, seed: int) -> None:
    """Expose the deterministic CATS trace as a worker observable."""
    context.register_call("fingerprint", lambda: traced_cats_fingerprint(seed))
