"""Robustness edge cases: cycles, destroyed targets, odd topologies."""

from __future__ import annotations

import pytest

from repro import ComponentDefinition, ComponentSystem, ManualScheduler, handles
from repro.core import routing
from repro.core.dispatch import trigger
from repro.core.errors import ConfigurationError
from repro.core.event import Direction

from tests.kit import (
    Collector,
    EchoServer,
    Ping,
    PingPort,
    Pong,
    Scaffold,
    make_system,
    settle,
)


def test_channel_cycle_does_not_hang_reachability():
    """Two components connected by two parallel channels form a cycle in
    the reachability graph; plan compilation must terminate."""
    system = make_system()
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=2)
        for _ in range(2):  # parallel channels: fan-out + cycle potential
            scaffold.connect(
                built["server"].provided(PingPort), built["client"].required(PingPort)
            )

    system.bootstrap(Scaffold, build)
    settle(system)
    # Each ping is delivered twice (two channels), each answered once per
    # delivery; each pong also fans out twice.
    assert len(built["server"].definition.pings) == 4
    face = built["client"].core.port(PingPort, provided=False).outside
    client = built["client"].core
    plan = routing.compile_plan(face, Pong, Direction.POSITIVE)
    assert plan.delivery_targets() == [(client, client.port(PingPort, provided=False).inside)]
    system.shutdown()


def test_trigger_to_destroyed_component_is_silent():
    system = make_system()
    built = {}

    def build(scaffold):
        built["scaffold"] = scaffold
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=0)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    built["scaffold"].destroy(built["server"])
    client = built["client"].definition
    client.trigger(Ping(1), client.port)  # goes nowhere, no error
    settle(system)
    assert client.pongs == []
    system.shutdown()


def test_duplicate_port_declaration_rejected():
    class DoublePort(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.provides(PingPort)
            self.provides(PingPort)

    system = make_system()
    with pytest.raises(ConfigurationError, match="already declares"):
        system.bootstrap(Scaffold, lambda scaffold: scaffold.create(DoublePort))


def test_provided_and_required_port_of_same_type_coexist():
    """A proxy both requires and provides the same abstraction."""

    class Proxy(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.front = self.provides(PingPort)
            self.back = self.requires(PingPort)
            self.subscribe(self.on_ping, self.front)
            self.subscribe(self.on_pong, self.back)

        @handles(Ping)
        def on_ping(self, ping):
            self.trigger(Ping(ping.n + 100), self.back)

        @handles(Pong)
        def on_pong(self, pong):
            self.trigger(Pong(pong.n), self.front)

    system = make_system()
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["proxy"] = scaffold.create(Proxy)
        built["client"] = scaffold.create(Collector, count=2)
        scaffold.connect(
            built["server"].provided(PingPort), built["proxy"].required(PingPort)
        )
        scaffold.connect(
            built["proxy"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    # The proxy forwarded (n + 100) to the server, replies flow back.
    assert [p.n for p in built["server"].definition.pings] == [100, 101]
    assert [p.n for p in built["client"].definition.pongs] == [100, 101]
    system.shutdown()


def test_missing_port_lookup_raises():
    system = make_system()
    built = {}
    system.bootstrap(Scaffold, lambda s: built.update(c=s.create(Collector)))
    with pytest.raises(ConfigurationError, match="has no provided"):
        built["c"].provided(PingPort)
    system.shutdown()


def test_deep_hierarchy_delegation():
    """PutGet-style delegation through three nesting levels."""

    class Level1(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.port = self.provides(PingPort)
            self.inner = self.create(EchoServer)
            self.connect(self.inner.provided(PingPort), self.port)

    class Level2(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.port = self.provides(PingPort)
            self.inner = self.create(Level1)
            self.connect(self.inner.provided(PingPort), self.port)

    class Level3(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.port = self.provides(PingPort)
            self.inner = self.create(Level2)
            self.connect(self.inner.provided(PingPort), self.port)

    system = make_system()
    built = {}

    def build(scaffold):
        built["tower"] = scaffold.create(Level3)
        built["client"] = scaffold.create(Collector, count=3)
        scaffold.connect(
            built["tower"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    assert [p.n for p in built["client"].definition.pongs] == [0, 1, 2]
    inner_server = built["tower"].definition.inner.definition.inner.definition.inner
    assert len(inner_server.definition.pings) == 3
    system.shutdown()


def test_selector_applies_on_delegation_channels():
    class Gate(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.port = self.provides(PingPort)
            self.inner = self.create(EchoServer)
            self.connect(
                self.inner.provided(PingPort),
                self.port,
                selector=lambda e: not isinstance(e, Ping) or e.n % 2 == 0,
            )

    system = make_system()
    built = {}

    def build(scaffold):
        built["gate"] = scaffold.create(Gate)
        built["client"] = scaffold.create(Collector, count=4)
        scaffold.connect(
            built["gate"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    inner = built["gate"].definition.inner
    assert [p.n for p in inner.definition.pings] == [0, 2]
    system.shutdown()
