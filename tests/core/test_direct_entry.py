"""Direct entries: a provider's requests called in the sender's execution.

``ComponentDefinition.direct_entry`` lets a provider take requests on one
of its provided faces without a mailbox round trip.  These tests pin what
that must not change: per-sender FIFO (requests queued while the provider
was not started, or while it was busy, leave first), the life cycle (a
destroyed provider receives nothing), fault isolation (a raising entry
does not fault the sender), what plans report, and what observers see.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

import pytest

from repro import (
    ComponentDefinition,
    ComponentSystem,
    Direction,
    Event,
    LifecycleState,
    PortType,
    Start,
    Stop,
    WorkStealingScheduler,
    handles,
)
from repro.core import ConfigurationError, observe, routing
from repro.core.component import after_handler
from repro.core.dispatch import trigger

from tests.kit import Scaffold, inject, make_system, settle, wait_until


@dataclass(frozen=True)
class Item(Event):
    lane: int = 0
    n: int = 0


@dataclass(frozen=True)
class Send(Event):
    """Ask a Source to send ``count`` Items from one handler execution."""

    count: int = 1


class Lane(PortType):
    negative = (Item,)


class Command(PortType):
    negative = (Send,)


class Sink(ComponentDefinition):
    """Provides Lane; records every Item and whether its entry took it."""

    def __init__(self, raise_on: int = -1, trace: list | None = None) -> None:
        super().__init__()
        self.port = self.provides(Lane)
        self.raise_on = raise_on
        self.trace = trace
        self.log: list[tuple[int, int, str]] = []
        self.lock = threading.Lock()
        self.subscribe(self.on_item, self.port)
        self.direct_entry(self.port, Item, self.take)

    @handles(Item)
    def on_item(self, item: Item) -> None:
        self.record(item, "mailbox")

    def take(self, item: Item) -> None:
        if item.n == self.raise_on:
            raise RuntimeError("injected")
        self.record(item, "entry")

    def record(self, item: Item, via: str) -> None:
        with self.lock:
            self.log.append((item.lane, item.n, via))
        if self.trace is not None:
            self.trace.append((via, item.n))

    def lane(self, lane: int) -> list[int]:
        with self.lock:
            return [n for got, n, _ in self.log if got == lane]

    def via(self, path: str) -> int:
        with self.lock:
            return sum(1 for *_, how in self.log if how == path)


class Source(ComponentDefinition):
    """Requires Lane; sends numbered Items on its lane when asked."""

    def __init__(self, lane: int = 0) -> None:
        super().__init__()
        self.lane = lane
        self.next = 0
        self.port = self.requires(Lane)
        self.command = self.provides(Command)
        self.subscribe(self.on_send, self.command)

    @handles(Send)
    def on_send(self, send: Send) -> None:
        for _ in range(send.count):
            self.emit(Item(self.lane, self.next))
            self.next += 1

    def emit(self, item: Item) -> None:
        self.trigger(item, self.port)


def _pair(system: ComponentSystem, sources: int = 1, **sink_kwargs):
    built: dict = {}

    def build(scaffold: Scaffold) -> None:
        sink = scaffold.create(Sink, **sink_kwargs)
        built["sink"] = sink
        built["sources"] = []
        for lane in range(sources):
            source = scaffold.create(Source, lane)
            scaffold.connect(sink.provided(Lane), source.required(Lane))
            built["sources"].append(source)

    system.bootstrap(Scaffold, build)
    return built["sink"].definition, [source.definition for source in built["sources"]]


def _send(source, count: int = 1) -> None:
    inject(source, Command, Send(count))


# ------------------------------------------------------------------ routing


def test_plans_report_the_same_targets_and_prebind_the_direct_receive():
    system = make_system()
    sink, (source,) = _pair(system)
    settle(system)
    face = source.core.port(Lane, provided=False).inside
    plan = routing.plan_for(face, Item, Direction.NEGATIVE)
    inside = sink.core.port(Lane, provided=True).inside
    assert plan.delivery_targets() == [(sink.core, inside)]
    (receive, _face), = plan.deliveries
    assert receive.__func__ is type(sink.core).receive_direct


def test_an_entry_needs_an_own_provided_inside_face_and_a_request_type():
    system = make_system()
    errors: list[str] = []

    class Misplaced(ComponentDefinition):
        def __init__(self) -> None:
            super().__init__()
            required = self.requires(Lane)
            provided = self.provides(Lane)
            for face, event_type in (
                (required, Item),
                (self.control, Start),
                (provided, Send),
            ):
                try:
                    self.direct_entry(face, event_type, print)
                except ConfigurationError as exc:
                    errors.append(str(exc))
            self.direct_entry(provided, Item, print)
            with pytest.raises(ConfigurationError):
                self.direct_entry(provided, Item, print)

    system.bootstrap(Misplaced)
    settle(system)
    assert len(errors) == 3


def test_after_handler_runs_once_per_key_when_the_handler_returns():
    system = make_system()
    calls: list[tuple[str, object]] = []
    outside = after_handler(lambda key: calls.append(("outside", key)), "k")

    class Deferring(ComponentDefinition):
        def __init__(self) -> None:
            super().__init__()
            self.command = self.provides(Command)
            self.subscribe(self.on_send, self.command)

        @handles(Send)
        def on_send(self, send: Send) -> None:
            for key in ("a", "b", "a"):
                assert after_handler(lambda got: calls.append(("after", got)), key)
            calls.append(("handler", send.count))

    root = system.bootstrap(Deferring)
    settle(system)
    inject(root, Command, Send(7))
    settle(system)
    assert outside is False
    assert calls == [("handler", 7), ("after", "a"), ("after", "b")]


# ----------------------------------------------------------------- ordering


def test_sends_made_while_the_provider_is_passive_leave_first_and_in_order():
    system = make_system()
    sink, (source,) = _pair(system)
    settle(system)
    trigger(Stop(), sink.core.control_port.outside)
    settle(system)
    assert sink.core.state is LifecycleState.PASSIVE

    _send(source, 5)  # buffered at the stopped provider
    settle(system)
    assert sink.log == []

    trigger(Start(), sink.core.control_port.outside)
    _send(source, 5)  # made while the buffered five are still queued
    settle(system)
    _send(source, 5)  # the provider is idle again: these go direct
    settle(system)
    assert sink.lane(0) == list(range(15))
    assert [via for *_, via in sink.log] == ["mailbox"] * 10 + ["entry"] * 5


def test_a_trigger_from_a_thread_that_runs_no_handler_takes_the_mailbox():
    system = make_system()
    sink, _sources = _pair(system)
    settle(system)
    inject(sink, Lane, Item(7, 0))  # this thread is the driver, not a handler
    assert sink.log == []
    settle(system)
    assert sink.log == [(7, 0, "mailbox")]


def test_two_workers_and_a_foreign_thread_keep_fifo_per_lane():
    per_lane, chunk = 3000, 30
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )
    sink, sources = _pair(system, sources=2)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)  # force the senders to interleave

        def foreign() -> None:
            for n in range(per_lane):
                inject(sink, Lane, Item(2, n))
                if n % chunk == 0:
                    time.sleep(0.0005)  # leave the sink idle now and then

        outsider = threading.Thread(target=foreign)
        outsider.start()
        for _ in range(per_lane // chunk):
            for source in sources:
                _send(source, chunk)
            time.sleep(0.0005)
        outsider.join(timeout=60)
        assert not outsider.is_alive()
        assert wait_until(lambda: len(sink.log) == 3 * per_lane, timeout=60)
        # Closing phase: whether the sink was ever idle when a source sent
        # above depends on how the threads overlapped.  Once everything has
        # settled it is, so one more send per source takes the entry.
        assert system.await_quiescence(timeout=60)
        for source in sources:
            _send(source, 1)
        assert wait_until(lambda: len(sink.log) == 3 * per_lane + 2, timeout=60)
        for lane in range(3):
            sent = per_lane + 1 if lane < len(sources) else per_lane
            assert sink.lane(lane) == list(range(sent))
        assert sink.via("entry") > 0 and sink.via("mailbox") >= per_lane
        assert not system.unhandled_faults
    finally:
        sys.setswitchinterval(interval)
        system.shutdown()


# --------------------------------------------------------- life cycle, faults


def test_a_destroyed_provider_drops_a_send():
    system = make_system()
    sink, (source,) = _pair(system)
    settle(system)
    face = source.core.port(Lane, provided=False).inside
    stale = routing.plan_for(face, Item, Direction.NEGATIVE)  # compiled while alive
    inside = sink.core.port(Lane, provided=True).inside
    sink.core.destroy()

    _send(source, 3)  # through the port: the channel went with the sink
    settle(system)
    # ... and through a plan compiled before the destroy, from a handler.
    source.emit = stale.execute
    _send(source, 3)
    settle(system)
    assert sink.log == []
    assert sink.core.pending_events == 0
    assert stale.delivery_targets() == [(sink.core, inside)]
    assert source.core.state is LifecycleState.ACTIVE


def test_an_exception_in_the_entry_does_not_fault_the_sender(caplog):
    system = make_system()  # fault_policy="raise": a fault would surface here
    sink, (source,) = _pair(system, raise_on=3)
    settle(system)
    _send(source, 6)
    settle(system)
    assert sink.lane(0) == [0, 1, 2, 4, 5]
    assert source.core.state is LifecycleState.ACTIVE
    assert sink.core.state is LifecycleState.ACTIVE
    assert not system.unhandled_faults
    assert "direct entry" in caplog.text


# ---------------------------------------------------------------- observers


def test_observers_see_a_direct_send_inside_the_senders_execution():
    seen: list[tuple[str, object]] = []
    system = make_system()
    sink, (source,) = _pair(system, trace=seen)
    settle(system)

    class Recorder(observe.Observer):
        def begin(self, core, item) -> None:
            seen.append(("begin", core.name))

        def end(self, core, item) -> None:
            seen.append(("end", core.name))

    recorder = Recorder()
    observe.attach(recorder)
    try:
        _send(source, 2)
        settle(system)
    finally:
        observe.detach(recorder)
    assert seen == [
        ("begin", source.core.name),
        ("entry", 0),
        ("entry", 1),
        ("end", source.core.name),
    ]
