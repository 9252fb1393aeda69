"""Components made ready by an AioTcpNetwork read run on its loop thread.

The loop thread claims the components that one read's deliveries make
ready and executes them itself, through the same ``ComponentCore.execute``
a scheduler worker calls, up to a per-read budget.  These tests pin what
that must keep: a component that is busy elsewhere is not taken over, one
component fed from a socket and from a worker at once still runs one
handler at a time with per-channel FIFO, a handler that raises on the loop
thread becomes a Fault (never a loop error), and a handler there that
destroys its own network does not wait for the thread it runs on.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

from repro import ComponentDefinition, ComponentSystem, Event, PortType, WorkStealingScheduler
from repro.core.fault import Fault
from repro.network import Address, AioTcpNetwork, Message, Network

from tests.kit import Scaffold, inject, wait_until


@dataclass(frozen=True)
class Note(Message):
    n: int = 0
    lane: int = 0


@dataclass(frozen=True)
class Tick(Event):
    n: int = 0


@dataclass(frozen=True)
class Hold(Event):
    """Keep the receiver busy (on whichever thread runs it) until released."""

    gate: threading.Event


class Local(PortType):
    negative = (Tick, Hold)


class Sender(ComponentDefinition):
    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)

    def send(self, to: Address, n: int, lane: int = 0) -> None:
        self.trigger(Note(self.address, to, n=n, lane=lane), self.network)


class Receiver(ComponentDefinition):
    """Records each handler's thread and sequence number, and whether two
    of its handlers ever overlapped."""

    def __init__(self) -> None:
        super().__init__()
        self.network = self.requires(Network)
        self.local = self.provides(Local)
        self.lanes: dict[int, list[int]] = {}
        self.threads: dict[int, set[str]] = {}
        self.inside = False
        self.overlaps = 0
        self.subscribe(self.on_note, self.network, event_type=Note)
        self.subscribe(self.on_tick, self.local, event_type=Tick)
        self.subscribe(self.on_hold, self.local, event_type=Hold)

    def _record(self, lane: int, n: int) -> None:
        if self.inside:
            self.overlaps += 1
        self.inside = True
        self.threads.setdefault(lane, set()).add(threading.current_thread().name)
        time.sleep(0)  # give another thread the chance to break in
        self.lanes.setdefault(lane, []).append(n)
        self.inside = False

    def on_note(self, note: Note) -> None:
        if note.n == -13:
            self.threads.setdefault(-13, set()).add(threading.current_thread().name)
            raise RuntimeError("unlucky note")
        self._record(note.lane, note.n)

    def on_tick(self, tick: Tick) -> None:
        self._record(-1, tick.n)

    def on_hold(self, hold: Hold) -> None:
        hold.gate.wait(timeout=30)


class Feeder(ComponentDefinition):
    """Triggers Ticks at the receiver from a worker, one per handler."""

    def __init__(self) -> None:
        super().__init__()
        self.orders = self.provides(Local)
        self.out = self.requires(Local)
        self.subscribe(self.on_tick, self.orders, event_type=Tick)

    def on_tick(self, tick: Tick) -> None:
        self.trigger(tick, self.out)


class Supervisor(ComponentDefinition):
    """Wires a sender, a receiver and a feeder over two networks; recovers
    the receiver from its Faults."""

    def __init__(self) -> None:
        super().__init__()
        self.faults: list[tuple[Fault, str]] = []
        self.nets = [self.create(AioTcpNetwork, Address("127.0.0.1", 0)) for _ in range(2)]
        self.sender = self.create(Sender, self.nets[0].definition.address)
        self.receiver = self.create(Receiver)
        self.feeder = self.create(Feeder)
        self.connect(self.nets[0].provided(Network), self.sender.required(Network))
        self.connect(self.nets[1].provided(Network), self.receiver.required(Network))
        self.connect(self.receiver.provided(Local), self.feeder.required(Local))
        self.subscribe(self.on_fault, self.receiver.control(), event_type=Fault)

    def on_fault(self, fault: Fault) -> None:
        self.faults.append((fault, threading.current_thread().name))
        fault.source.recover()


def _build():
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2), fault_policy="record")
    main = system.bootstrap(Supervisor).definition
    sender, receiver = main.sender.definition, main.receiver.definition
    net_a, net_b = (net.definition for net in main.nets)
    return system, main, sender, receiver, net_a, net_b


def _warm(sender: Sender, receiver: Receiver, to: Address) -> None:
    sender.send(to, -1, lane=99)
    assert wait_until(lambda: receiver.lanes.get(99) == [-1], timeout=10)


def _loop_name(net: AioTcpNetwork) -> str:
    return f"aio-net-{net.address}"


def test_an_idle_component_runs_on_the_loop_thread_and_a_busy_one_on_a_worker():
    system, _main, sender, receiver, net_a, net_b = _build()
    try:
        _warm(sender, receiver, net_b.address)
        slots = net_b.status_snapshot()["loop_slots"]
        for n in range(10):  # fewer than one read's budget, however they coalesce
            sender.send(net_b.address, n)
        assert wait_until(lambda: receiver.lanes.get(0) == list(range(10)), timeout=10)
        assert receiver.threads[0] == {_loop_name(net_b)}
        assert net_b.status_snapshot()["loop_slots"] >= slots + 10

        # Busy on a worker (a Hold from this thread goes to a worker): the
        # notes queue behind it, and the worker that owns it runs them.
        gate = threading.Event()
        inject(receiver, Local, Hold(gate))
        assert wait_until(lambda: receiver.core.pending_events == 0, timeout=10)
        for n in range(5):
            sender.send(net_b.address, n, lane=1)
        assert wait_until(lambda: receiver.core.pending_events == 5, timeout=10)
        gate.set()
        assert wait_until(lambda: receiver.lanes.get(1) == list(range(5)), timeout=10)
        assert all(name.startswith("kompics-worker") for name in receiver.threads[1])
        assert net_b.status_snapshot()["loop_errors"] == 0
        assert not system.unhandled_faults
    finally:
        system.shutdown()


def test_socket_and_worker_feeds_never_overlap_and_keep_channel_order():
    system, main, sender, receiver, net_a, net_b = _build()
    feeder = main.feeder.definition
    loop_name = _loop_name(net_b)
    interval = sys.getswitchinterval()
    stop, calm = threading.Event(), threading.Event()
    ticks = 0

    def pause(count: int) -> None:
        # Let the receiver go idle now and then (often, once calm: a
        # loaded host can keep it busy on a worker for a whole burst).
        if calm.is_set():
            time.sleep(0.01)
        elif count % 8 == 0:
            time.sleep(0.002)

    def feed() -> None:
        nonlocal ticks
        while not stop.is_set():
            inject(feeder, Local, Tick(ticks))  # runs on a worker, which triggers
            ticks += 1
            pause(ticks)

    def both_kinds_ran() -> bool:
        names = receiver.threads.get(0, set()) | receiver.threads.get(-1, set())
        return loop_name in names and any(n.startswith("kompics-worker") for n in names)

    outsider = threading.Thread(target=feed)
    try:
        _warm(sender, receiver, net_b.address)
        sys.setswitchinterval(1e-5)  # force the feeds to interleave
        outsider.start()
        notes, deadline = 0, time.monotonic() + 30
        # At least 500 notes, and on until both a worker and the loop thread
        # have run the receiver while the other feed was live.
        while notes < 500 or (not both_kinds_ran() and time.monotonic() < deadline):
            sender.send(net_b.address, notes)
            notes += 1
            if notes == 500:
                calm.set()
            pause(notes)
        stop.set()
        outsider.join(timeout=60)
        assert not outsider.is_alive()
        assert wait_until(
            lambda: len(receiver.lanes.get(0, [])) == notes
            and len(receiver.lanes.get(-1, [])) == ticks,
            timeout=60,
        )
        assert receiver.overlaps == 0
        assert receiver.lanes[0] == list(range(notes))
        assert receiver.lanes[-1] == list(range(ticks))
        assert both_kinds_ran()
        assert not system.unhandled_faults
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        system.shutdown()


def test_a_handler_raising_on_the_loop_thread_is_a_fault_not_a_loop_error():
    system, main, sender, receiver, net_a, net_b = _build()
    try:
        _warm(sender, receiver, net_b.address)
        sender.send(net_b.address, 0)
        sender.send(net_b.address, -13)
        for n in range(1, 50):
            sender.send(net_b.address, n)
        assert wait_until(lambda: receiver.lanes.get(0) == list(range(50)), timeout=10)
        assert receiver.threads[-13] == {_loop_name(net_b)}
        assert len(main.faults) == 1
        fault, where = main.faults[0]
        assert isinstance(fault.cause, RuntimeError) and fault.source is receiver.core
        assert where == _loop_name(net_b)
        snapshot = net_b.status_snapshot()
        assert snapshot["loop_errors"] == 0 and snapshot["connections"] == 1
        # ... and the connection keeps delivering.
        sender.send(net_b.address, 50)
        assert wait_until(lambda: receiver.lanes[0][-1:] == [50], timeout=10)
        assert not system.unhandled_faults
    finally:
        system.shutdown()


class Owner(ComponentDefinition):
    """Owns an AioTcpNetwork and destroys it (or drops its connections)
    from the handler of the Note that arrives over it."""

    def __init__(self) -> None:
        super().__init__()
        self.net = self.create(AioTcpNetwork, Address("127.0.0.1", 0))
        self.calls: list[tuple[int, str, float]] = []
        self.subscribe(self.on_note, self.net.provided(Network), event_type=Note)

    def on_note(self, note: Note) -> None:
        start = time.monotonic()
        if note.n == 1:
            self.net.definition._drop_connections()
        elif note.n == 2:
            self.destroy(self.net)
        self.calls.append((note.n, threading.current_thread().name, time.monotonic() - start))


def test_a_handler_on_the_loop_thread_destroying_its_network_does_not_wait(caplog):
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2), fault_policy="record")
    main = None

    def build(scaffold):
        nonlocal main
        main = scaffold.create(Owner)
        net = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0))
        sender = scaffold.create(Sender, net.definition.address)
        scaffold.connect(net.provided(Network), sender.required(Network))
        scaffold.sender, scaffold.sender_net = sender.definition, net.definition

    scaffold = system.bootstrap(Scaffold, build).definition
    owner, sender, sender_net = main.definition, scaffold.sender, scaffold.sender_net
    net = owner.net.definition
    loop = net._loop
    try:
        for n in (0, 1):
            sender.send(net.address, n)
            assert wait_until(lambda: len(owner.calls) == n + 1, timeout=10)
        # The dropped connection is gone at the sender too before it sends
        # again: nothing is promised for a frame written into a closing one.
        assert wait_until(lambda: sender_net.status_snapshot()["connections"] == 0, timeout=10)
        sender.send(net.address, 2)
        assert wait_until(lambda: len(owner.calls) == 3, timeout=10)
        for n, thread, elapsed in owner.calls:
            assert thread == _loop_name(net)
            assert elapsed < 1.0, (n, elapsed)
        loop.join(timeout=5)
        assert not loop.is_alive()
        assert net.status_snapshot()["loop_errors"] == 0
        # tear_down neither joined its own thread nor raised trying to.
        assert not [r for r in caplog.records if "tear_down" in r.getMessage()]
        assert not system.unhandled_faults
    finally:
        system.shutdown()


class Tally(ComponentDefinition):
    """Counts the Notes that reach it."""

    def __init__(self) -> None:
        super().__init__()
        self.network = self.requires(Network)
        self.seen: list[int] = []
        self.subscribe(self.on_note, self.network, event_type=Note)

    def on_note(self, note: Note) -> None:
        self.seen.append(note.n)


def test_a_halted_system_runs_nothing_more_on_the_loop_thread(capsys):
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2))  # fault policy: halt
    built = {}

    def build(scaffold):
        nets = [scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0)) for _ in range(2)]
        sender = scaffold.create(Sender, nets[0].definition.address)
        receiver, tally = scaffold.create(Receiver), scaffold.create(Tally)
        scaffold.connect(nets[0].provided(Network), sender.required(Network))
        for app in (receiver, tally):
            scaffold.connect(nets[1].provided(Network), app.required(Network))
        built.update(sender=sender.definition, tally=tally.definition,
                     net_a=nets[0].definition, net=nets[1].definition)

    system.bootstrap(Scaffold, build)
    sender, tally, net_a, net = built["sender"], built["tally"], built["net_a"], built["net"]
    try:
        sender.send(net.address, 0)
        assert wait_until(lambda: tally.seen == [0], timeout=10)
        sender.send(net.address, -13)  # unhandled: the system halts
        assert wait_until(lambda: system.halted, timeout=10)
        for n in range(1, 20):  # no worker runs now: the sending side is called directly
            net_a.on_send(Note(sender.address, net.address, n=n))
        assert wait_until(lambda: net.received >= 21, timeout=10)
        time.sleep(0.1)
        assert tally.seen in ([0], [0, -13])  # the -13 may have run before the halt
        assert "unhandled fault" in capsys.readouterr().err
    finally:
        system.shutdown(wait=False)
