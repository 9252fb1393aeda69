"""Fault isolation and escalation (paper section 2.5)."""

from __future__ import annotations

import pytest

from repro import (
    ComponentDefinition,
    Fault,
    LifecycleState,
    ManualScheduler,
    Start,
    WorkStealingScheduler,
    handles,
)
from repro.core.lifecycle import ControlPort

from tests.kit import Collector, Ping, PingPort, Pong, Scaffold, make_system, settle


class Exploder(ComponentDefinition):
    """Raises from its Ping handler."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(PingPort)
        self.subscribe(self.on_ping, self.port)

    @handles(Ping)
    def on_ping(self, ping: Ping) -> None:
        raise ValueError(f"boom on ping {ping.n}")


class Supervisor(ComponentDefinition):
    """Creates an Exploder child and handles its faults."""

    def __init__(self) -> None:
        super().__init__()
        self.child = self.create(Exploder)
        self.faults: list[Fault] = []
        self.subscribe(self.on_fault, self.child.control())

    @handles(Fault)
    def on_fault(self, fault: Fault) -> None:
        self.faults.append(fault)


def test_handler_exception_is_wrapped_and_delivered_to_parent():
    system = make_system()
    built = {}

    def build(scaffold):
        built["supervisor"] = scaffold.create(Supervisor)
        built["client"] = scaffold.create(Collector, count=1)
        scaffold.connect(
            built["supervisor"].definition.child.provided(PingPort),
            built["client"].required(PingPort),
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    supervisor = built["supervisor"].definition
    assert len(supervisor.faults) == 1
    fault = supervisor.faults[0]
    assert isinstance(fault.cause, ValueError)
    assert fault.source is supervisor.child.core
    assert isinstance(fault.event, Ping)
    assert "boom" in fault.trace()
    system.shutdown()


@pytest.mark.parametrize(
    "scheduler",
    [ManualScheduler, lambda: WorkStealingScheduler(workers=2)],
    ids=["manual", "work-stealing"],
)
def test_faulty_component_stops_executing_until_recovered(scheduler):
    """Under both lock strategies: none, and a lock per component."""
    system = make_system(scheduler=scheduler())
    built = {}

    def build(scaffold):
        built["supervisor"] = scaffold.create(Supervisor)
        built["client"] = scaffold.create(Collector, count=3)
        scaffold.connect(
            built["supervisor"].definition.child.provided(PingPort),
            built["client"].required(PingPort),
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    supervisor = built["supervisor"].definition
    child = supervisor.child
    assert child.state is LifecycleState.FAULTY
    # Only the first ping faulted; the rest are not executed while faulty.
    assert len(supervisor.faults) == 1

    child.core.recover()
    settle(system)
    # Recovery drops the poisoned event and faults again on the next one.
    assert child.state is LifecycleState.FAULTY
    assert len(supervisor.faults) == 2
    system.shutdown()


def test_unhandled_fault_escalates_to_grandparent():
    class MiddleManager(ComponentDefinition):
        """Creates an Exploder but subscribes no Fault handler."""

        def __init__(self) -> None:
            super().__init__()
            self.child = self.create(Exploder)

    class GrandSupervisor(ComponentDefinition):
        def __init__(self) -> None:
            super().__init__()
            self.middle = self.create(MiddleManager)
            self.faults: list[Fault] = []
            self.subscribe(self.on_fault, self.middle.control())
            self.client = self.create(Collector, count=1)
            self.connect(
                self.middle.definition.child.provided(PingPort),
                self.client.required(PingPort),
            )

        @handles(Fault)
        def on_fault(self, fault: Fault) -> None:
            self.faults.append(fault)

    system = make_system()
    built = {}

    def build(scaffold):
        built["grand"] = scaffold.create(GrandSupervisor)

    system.bootstrap(Scaffold, build)
    settle(system)
    grand = built["grand"].definition
    assert len(grand.faults) == 1
    assert grand.faults[0].source.definition.__class__ is Exploder
    system.shutdown()


def test_fault_unhandled_anywhere_reaches_system_handler():
    system = make_system()  # fault_policy="raise"
    built = {}

    def build(scaffold):
        built["exploder"] = scaffold.create(Exploder)
        built["client"] = scaffold.create(Collector, count=1)
        scaffold.connect(
            built["exploder"].provided(PingPort),
            built["client"].required(PingPort),
        )

    system.bootstrap(Scaffold, build)
    with pytest.raises(ValueError, match="boom"):
        settle(system)
    assert len(system.unhandled_faults) == 1


def test_record_policy_collects_faults_without_raising():
    system = make_system(fault_policy="record")
    built = {}

    def build(scaffold):
        built["exploder"] = scaffold.create(Exploder)
        built["client"] = scaffold.create(Collector, count=1)
        scaffold.connect(
            built["exploder"].provided(PingPort),
            built["client"].required(PingPort),
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    assert len(system.unhandled_faults) == 1
    assert not system.halted
    system.shutdown()


def test_halt_policy_marks_system_halted(capsys):
    system = make_system(fault_policy="halt")
    built = {}

    def build(scaffold):
        built["exploder"] = scaffold.create(Exploder)
        built["client"] = scaffold.create(Collector, count=1)
        scaffold.connect(
            built["exploder"].provided(PingPort),
            built["client"].required(PingPort),
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    assert system.halted
    assert "boom" in capsys.readouterr().err
