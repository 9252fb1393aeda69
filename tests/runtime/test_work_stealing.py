"""The multi-core work-stealing scheduler (paper section 3)."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import (
    ComponentDefinition,
    ComponentSystem,
    LifecycleState,
    Start,
    Stop,
    WorkStealingScheduler,
    handles,
)
from repro.core.dispatch import trigger
from repro.runtime.work_stealing import SingleThreadScheduler

from tests.kit import Collector, EchoServer, Ping, PingPort, Pong, Scaffold, inject, wait_until


def make_threaded_system(workers=2, **kwargs):
    kwargs.setdefault("fault_policy", "record")
    return ComponentSystem(scheduler=WorkStealingScheduler(workers=workers), **kwargs)


class Racer(ComponentDefinition):
    """Increments a counter non-atomically; loses updates if handlers overlap."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(PingPort)
        self.count = 0
        self.executing = 0
        self.max_concurrency = 0
        self.subscribe(self.on_ping, self.port)

    @handles(Ping)
    def on_ping(self, _ping: Ping) -> None:
        self.executing += 1
        self.max_concurrency = max(self.max_concurrency, self.executing)
        value = self.count
        for _ in range(50):  # widen the race window
            pass
        self.count = value + 1
        self.executing -= 1


def test_ping_pong_completes_under_threads():
    system = make_threaded_system(workers=3)
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=200)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    assert wait_until(lambda: len(built["client"].definition.pongs) == 200)
    assert [p.n for p in built["client"].definition.pongs] == list(range(200))
    system.shutdown()


def test_handlers_of_one_component_are_mutually_exclusive():
    system = make_threaded_system(workers=4)
    built = {}

    def build(scaffold):
        built["racer"] = scaffold.create(Racer)
        for _ in range(4):
            client = scaffold.create(Collector, count=250)
            scaffold.connect(
                built["racer"].provided(PingPort), client.required(PingPort)
            )

    system.bootstrap(Scaffold, build)
    racer = built["racer"].definition
    assert wait_until(lambda: racer.count == 1000, timeout=20)
    assert racer.max_concurrency == 1
    system.shutdown()


def test_work_stealing_migrates_components_between_workers():
    system = make_threaded_system(workers=4)
    built = {"servers": []}

    def build(scaffold):
        # Many independent server/client pairs: plenty of ready components.
        for _ in range(32):
            server = scaffold.create(EchoServer)
            client = scaffold.create(Collector, count=50)
            scaffold.connect(server.provided(PingPort), client.required(PingPort))
            built["servers"].append((server, client))

    system.bootstrap(Scaffold, build)
    assert wait_until(
        lambda: all(len(c.definition.pongs) == 50 for _, c in built["servers"]),
        timeout=30,
    )
    stats = system.scheduler.stats()
    assert stats["executed_slots"] > 0
    system.shutdown()


@pytest.mark.parametrize("batch", [1, "half"])
def test_steal_batch_configurations_work(batch):
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=3, steal_batch=batch),
        fault_policy="record",
    )
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=100)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    assert wait_until(lambda: len(built["client"].definition.pongs) == 100)
    system.shutdown()


def test_invalid_steal_batch_rejected():
    with pytest.raises(ValueError):
        WorkStealingScheduler(workers=2, steal_batch=0)
    with pytest.raises(ValueError):
        WorkStealingScheduler(workers=0)


def test_single_thread_scheduler_serializes_everything():
    system = ComponentSystem(scheduler=SingleThreadScheduler(), fault_policy="record")
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=50)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    assert wait_until(lambda: len(built["client"].definition.pongs) == 50)
    system.shutdown()


def test_shutdown_is_idempotent():
    system = make_threaded_system()
    system.bootstrap(Scaffold, lambda scaffold: None)
    system.shutdown()
    system.scheduler.shutdown()


def test_a_sleeping_worker_is_woken_at_once_by_a_foreign_thread():
    """schedule() notifies only when a worker is asleep; none may be missed.

    With a 10 s idle wait, a missed wake-up would stall a round trip for
    seconds: every one of these must finish while the workers idle between.
    """
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2, idle_wait=10.0), fault_policy="record"
    )
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=0)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    client = built["client"].definition
    try:
        assert wait_until(lambda: system.scheduler.sleeping == 2, timeout=5)
        for n in range(30):
            client.trigger(Ping(n), client.port)  # from this (foreign) thread
            assert wait_until(lambda: len(client.pongs) == n + 1, timeout=2, interval=0.0005)
            assert wait_until(lambda: system.scheduler.sleeping == 2, timeout=2)
        assert [p.n for p in client.pongs] == list(range(30))
    finally:
        system.shutdown()
    assert system.scheduler.sleeping == 0


def test_the_locked_state_machine_loses_no_event_under_contention():
    """Four workers and five foreign threads on one component, a 10 µs switch
    interval, and Stop/Start cycles flipping its admission while they send:
    a lost update of the queue, of IDLE/READY/BUSY or of the cached admission
    verdict loses a Ping, runs two handlers at once, or strands it READY."""
    system = make_threaded_system(workers=4)
    built = {}

    def build(scaffold):
        built["racer"] = scaffold.create(Racer)

    system.bootstrap(Scaffold, build)
    racer = built["racer"]
    control = racer.core.control_port.outside
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)

        def send() -> None:
            for n in range(500):
                inject(racer, PingPort, Ping(n))

        def toggle() -> None:
            for _ in range(20):
                trigger(Stop(), control)
                time.sleep(0.001)
                trigger(Start(), control)
                time.sleep(0.001)

        threads = [threading.Thread(target=send) for _ in range(4)]
        threads.append(threading.Thread(target=toggle))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert wait_until(lambda: racer.definition.count == 2000, timeout=60)
        assert system.await_quiescence(timeout=10)
        assert racer.state is LifecycleState.ACTIVE
        assert racer.definition.max_concurrency == 1
        assert racer.core.pending_events == 0 and system.active_components == 0
        assert not system.unhandled_faults
    finally:
        sys.setswitchinterval(interval)
        system.shutdown()
