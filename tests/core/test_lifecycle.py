"""Component initialization and life-cycle (paper section 2.4).

Every test runs under both lock strategies of the component state
machine: none (the ManualScheduler) and a lock per component (two
work-stealing workers).
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import (
    ComponentDefinition,
    Init,
    LifecycleState,
    ManualScheduler,
    Start,
    Stop,
    WorkStealingScheduler,
    handles,
)

from tests.kit import Collector, EchoServer, Ping, PingPort, Pong, Scaffold, make_system, settle


@pytest.fixture(params=["manual", "work-stealing"])
def system(request):
    if request.param == "manual":
        return make_system(scheduler=ManualScheduler())
    return make_system(scheduler=WorkStealingScheduler(workers=2))


@dataclass(frozen=True)
class MyInit(Init):
    parameter: int = 0


class Initialized(ComponentDefinition):
    """Records the order in which life-cycle and functional events execute."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(PingPort)
        self.events: list[str] = []
        self.parameter: int | None = None
        self.subscribe(self.on_init, self.control)
        self.subscribe(self.on_start, self.control)
        self.subscribe(self.on_stop, self.control)
        self.subscribe(self.on_ping, self.port)

    @handles(MyInit)
    def on_init(self, init: MyInit) -> None:
        self.parameter = init.parameter
        self.events.append("init")

    @handles(Start)
    def on_start(self, _: Start) -> None:
        self.events.append("start")

    @handles(Stop)
    def on_stop(self, _: Stop) -> None:
        self.events.append("stop")

    @handles(Ping)
    def on_ping(self, ping: Ping) -> None:
        self.events.append(f"ping{ping.n}")
        self.trigger(Pong(ping.n), self.port)


def _build_pair(system, init=None, count=1):
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(Initialized, init=init)
        built["client"] = scaffold.create(Collector, count=count)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    built["root"] = system.bootstrap(Scaffold, build)
    return built


def test_init_executes_before_anything_else(system):
    built = _build_pair(system, init=MyInit(parameter=42))
    settle(system)
    server = built["server"].definition
    assert server.parameter == 42
    assert server.events[0] == "init"
    assert server.events[1] == "start"
    system.shutdown()


def test_component_with_init_handler_waits_for_init(system):
    """Without an Init event, a needs-init component must not run anything."""
    built = _build_pair(system, init=None)
    settle(system)
    server = built["server"].definition
    assert server.events == []
    assert built["server"].state is LifecycleState.PASSIVE
    # Delivering the Init unblocks the buffered Start and Pings.
    server.trigger(MyInit(parameter=7), built["server"].control())
    settle(system)
    assert server.events[0] == "init"
    assert "start" in server.events
    assert "ping0" in server.events
    system.shutdown()


def test_passive_component_buffers_events_until_started(system):
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=2)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )
        built["scaffold"] = scaffold

    system.bootstrap(Scaffold, build)
    settle(system)
    assert [p.n for p in built["server"].definition.pings] == [0, 1]

    # Passivate the server, then send pings into it: they must buffer.
    built["scaffold"].stop_child(built["server"])
    settle(system)
    assert built["server"].state is LifecycleState.PASSIVE
    client = built["client"].definition
    client.trigger(Ping(99), client.port)
    settle(system)
    assert all(p.n != 99 for p in built["server"].definition.pings)

    # Restart: buffered pings must now be executed, in order.
    built["scaffold"].start_child(built["server"])
    settle(system)
    assert [p.n for p in built["server"].definition.pings] == [0, 1, 99]
    system.shutdown()


def test_start_and_stop_recurse_through_composites(system):
    class Composite(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.inner = self.create(EchoServer)

    built = {}

    def build(scaffold):
        built["composite"] = scaffold.create(Composite)

    system.bootstrap(Scaffold, build)
    settle(system)
    inner = built["composite"].definition.inner
    assert built["composite"].state is LifecycleState.ACTIVE
    assert inner.state is LifecycleState.ACTIVE

    built["composite"].definition.trigger(Stop(), built["composite"].control())
    settle(system)
    assert built["composite"].state is LifecycleState.PASSIVE
    assert inner.state is LifecycleState.PASSIVE
    system.shutdown()


def test_dynamically_created_component_is_passive_until_started(system):
    built = {}

    def build(scaffold):
        built["scaffold"] = scaffold

    system.bootstrap(Scaffold, build)
    settle(system)
    scaffold = built["scaffold"]
    late = scaffold.create(EchoServer)
    settle(system)
    assert late.state is LifecycleState.PASSIVE
    scaffold.start_child(late)
    settle(system)
    assert late.state is LifecycleState.ACTIVE
    system.shutdown()


def test_destroy_removes_component_and_its_channels(system):
    built = _build_pair(system, init=MyInit(1))
    settle(system)
    server_core = built["server"].core
    provided = server_core.port(PingPort, provided=True)
    assert provided.outside.channels
    built["root"].definition.destroy(built["server"])
    settle(system)
    assert built["server"].state is LifecycleState.DESTROYED
    assert not provided.outside.channels
    assert server_core not in system.components
    # The client's triggers now go nowhere, without error.
    client = built["client"].definition
    client.trigger(Ping(5), client.port)
    settle(system)
    system.shutdown()
