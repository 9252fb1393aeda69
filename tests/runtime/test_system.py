"""ComponentSystem: bootstrap, services, quiescence, configuration."""

from __future__ import annotations

import pytest

from repro import (
    ComponentDefinition,
    ComponentSystem,
    Direction,
    Init,
    ManualScheduler,
    handles,
)
from repro.core import routing
from repro.core.errors import ConfigurationError

from tests.kit import Collector, EchoServer, Ping, PingPort, Scaffold, make_system, settle


def test_invalid_fault_policy_rejected():
    with pytest.raises(ConfigurationError):
        ComponentSystem(scheduler=ManualScheduler(), fault_policy="explode")


def test_direct_definition_instantiation_rejected():
    with pytest.raises(ConfigurationError):
        EchoServer()


def test_seed_controls_randomness():
    a = make_system(seed=1).random.random()
    b = make_system(seed=1).random.random()
    c = make_system(seed=2).random.random()
    assert a == b != c


def test_services_registry():
    system = make_system()

    class FakeService:
        closed = False

        def close(self):
            self.closed = True

    service = FakeService()
    system.register_service("thing", service)
    assert system.service("thing") is service
    with pytest.raises(ConfigurationError):
        system.service("missing")
    system.bootstrap(Scaffold, lambda scaffold: None)
    system.shutdown()
    assert service.closed  # shutdown closes closeable services


def test_bootstrap_with_init():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class RootInit(Init):
        value: int = 0

    seen = {}

    class Root(ComponentDefinition):
        def __init__(self):
            super().__init__()
            self.subscribe(self.on_init, self.control)

        @handles(RootInit)
        def on_init(self, init):
            seen["value"] = init.value

    system = make_system()
    system.bootstrap(Root, init=RootInit(value=99))
    settle(system)
    assert seen["value"] == 99
    system.shutdown()


def test_topology_changes_invalidate_only_the_plans_that_read_them():
    system = make_system()
    built = {}

    def build(scaffold):
        built["scaffold"] = scaffold
        for name in ("near", "far"):
            built[name, "server"] = scaffold.create(EchoServer)
            built[name, "client"] = scaffold.create(Collector)
            scaffold.connect(
                built[name, "server"].provided(PingPort),
                built[name, "client"].required(PingPort),
            )

    system.bootstrap(Scaffold, build)
    settle(system)  # every Collector pinged: both pairs' routes are compiled

    def plan(name):
        face = built[name, "client"].definition.port
        return routing.plan_for(face, Ping, Direction.NEGATIVE)

    near, far, compiled = plan("near"), plan("far"), system.plans_compiled
    # Creating an unconnected component invalidates nothing ...
    built["scaffold"].create(EchoServer)
    assert (plan("near"), plan("far"), system.plans_compiled) == (near, far, compiled)
    # ... and destroying one end of a route rebuilds that route only.
    invalidated = system.plans_invalidated
    built["scaffold"].destroy(built["near", "server"])
    assert plan("near") is not near and plan("near").delivery_targets() == []
    assert plan("far") is far
    assert system.plans_compiled == compiled + 1
    assert system.plans_invalidated > invalidated
    system.shutdown()


def test_active_component_count_returns_to_zero():
    system = make_system()
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=20)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    assert system.active_components == 0
    assert len(built["client"].definition.pongs) == 20
    system.shutdown()


def test_multiple_roots_coexist():
    system = make_system()
    first = system.bootstrap(Scaffold, lambda s: None, name="first")
    second = system.bootstrap(Scaffold, lambda s: None, name="second")
    settle(system)
    assert first.core.name == "first"
    assert second.core.name == "second"
    assert len(system.roots) == 2
    system.shutdown()
    assert not system.roots
