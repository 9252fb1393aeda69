"""Reconfiguration racing live triggers on a multi-worker scheduler.

Two pumps trigger bursts of pings from their handlers (worker threads)
while another thread rewires what those triggers route through with the
whole reconfiguration vocabulary.  Plans are invalidated per face and
``trigger``'s hit path takes no lock, so two things must survive any
interleaving:

- no plan compiled from the state before a command may stay cached after
  it: once everything stops, every cached plan routes as the reference
  walker does on the final topology;
- paper §2.6: each pump's link to the sinks is only ever held, unplugged,
  replugged and resumed, so every ping it triggered was delivered or is
  still queued, exactly once — and nothing reaches a destroyed component.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass

from repro import (
    ComponentDefinition,
    ComponentSystem,
    Event,
    PortType,
    WorkStealingScheduler,
    handles,
)
from repro.core import dispatch

from tests.kit import Ping, PingPort, Scaffold
from tests.reference.walker import check_cached_plans

ITERATIONS = 200
BURST = 20
STRIDE = 10**6  # ping.n = pump index * STRIDE + sequence number


@dataclass(frozen=True)
class Kick(Event):
    pass


class KickPort(PortType):
    negative = (Kick,)


class NappingType(type):
    """``issubclass(x, SlowPing)`` naps, and a compile that walks over a
    Sink's subscriptions asks: between reading the topology and caching the
    plan it leaves the other threads all the time they need."""

    def __subclasscheck__(cls, subclass) -> bool:
        time.sleep(0.0002)
        return super().__subclasscheck__(subclass)


@dataclass(frozen=True)
class SlowPing(Ping, metaclass=NappingType):
    pass


class Pump(ComponentDefinition):
    """Each Kick triggers a burst of numbered pings from a worker thread."""

    def __init__(self, index: int) -> None:
        super().__init__()
        self.index = index
        self.sent = 0
        self.kicks = self.provides(KickPort)
        self.port = self.requires(PingPort)
        self.subscribe(self.on_kick, self.kicks)

    @handles(Kick)
    def on_kick(self, _kick: Kick) -> None:
        for _ in range(BURST):
            self.trigger(Ping(self.index * STRIDE + self.sent), self.port)
            self.sent += 1


class Sink(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(PingPort)
        self.pings: list[int] = []
        self.extra = 0
        self.subscribe(self.on_ping, self.port)
        self.subscribe(self.on_slow_ping, self.port)

    @handles(Ping)
    def on_ping(self, ping: Ping) -> None:
        self.pings.append(ping.n)

    @handles(SlowPing)
    def on_slow_ping(self, _ping: SlowPing) -> None:
        raise AssertionError("nobody triggers one")

    @handles(Ping)
    def on_ping_too(self, _ping: Ping) -> None:
        self.extra += 1


class Rewirer:
    """The reconfiguring thread: seeded ops on the links of both pumps."""

    def __init__(self, root, pumps, sinks, links, seed: int) -> None:
        self.root, self.pumps, self.sinks, self.links = root, pumps, sinks, links
        self.rng = random.Random(seed)
        #: (spare, its pump's index, that pump's ``sent`` after the destroy)
        self.destroyed: list[tuple[Sink, int, int]] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            for _ in range(ITERATIONS):
                self.rng.choice(
                    (self.toggle_hold, self.replug, self.spare_cycle, self.resubscribe)
                )()
        except BaseException as exc:  # noqa: BLE001 - reported by the test thread
            self.error = exc

    def toggle_hold(self) -> None:
        link = self.rng.choice(self.links)
        link.resume() if link.held else link.hold()

    def replug(self) -> None:
        """The §2.6 protocol: hold, unplug, plug into the other sink, resume."""
        link = self.rng.choice(self.links)
        was_held = link.held
        link.hold()
        link.unplug(link.positive_end)
        link.plug(self.rng.choice(self.sinks).provided(PingPort))
        if not was_held:
            link.resume()

    def spare_cycle(self) -> None:
        """A second provider comes and goes at one pump's required port."""
        pump = self.rng.choice(self.pumps)
        spare = self.root.create(Sink)
        self.root.start_child(spare)
        self.root.connect(spare.provided(PingPort), pump.required(PingPort))
        sent, deadline = pump.definition.sent, time.monotonic() + 0.002
        while pump.definition.sent == sent and time.monotonic() < deadline:
            time.sleep(0)  # let a burst through the new channel
        if self.rng.random() < 0.5:
            self.root.disconnect(spare.provided(PingPort), pump.required(PingPort))
        self.root.destroy(spare)  # takes a still-attached channel with it
        self.destroyed.append((spare.definition, pump.definition.index, pump.definition.sent))

    def resubscribe(self) -> None:
        sink = self.rng.choice(self.sinks).definition
        sink.subscribe(sink.on_ping_too, sink.port)
        sink.unsubscribe(sink.on_ping_too, sink.port)


def test_reconfiguration_racing_triggers_keeps_plans_fresh_and_loses_nothing():
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record", seed=5
    )
    built = {}

    def build(scaffold):
        built["root"] = scaffold
        built["pumps"] = [scaffold.create(Pump, index) for index in range(2)]
        built["sinks"] = [scaffold.create(Sink) for _ in range(2)]
        built["links"] = [
            scaffold.connect(sink.provided(PingPort), pump.required(PingPort))
            for pump, sink in zip(built["pumps"], built["sinks"])
        ]

    system.bootstrap(Scaffold, build)
    pumps, sinks, links = built["pumps"], built["sinks"], built["links"]
    rewirer = Rewirer(built["root"], pumps, sinks, links, seed=2012)
    thread = threading.Thread(target=rewirer.run, name="rewirer")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        while thread.is_alive():
            for pump in pumps:
                if pump.core.pending_events < 2:  # keep both busy, not backlogged
                    dispatch.trigger(Kick(), pump.provided(KickPort))
            thread.join(timeout=0.0005)
        thread.join(timeout=5)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and rewirer.error is None, rewirer.error
    assert system.await_quiescence(timeout=5)
    assert not system.unhandled_faults

    # Every plan still cached anywhere routes as the walker does now.
    assert check_cached_plans(system) >= 4

    # §2.6 on each pump's own link: delivered + still queued == triggered.
    delivered = sorted(n for sink in sinks for n in sink.definition.pings)
    queued = sorted(
        event.n for link in links for event, _direction in tuple(link._queue or ())
    )
    triggered = sorted(
        pump.definition.index * STRIDE + seq
        for pump in pumps
        for seq in range(pump.definition.sent)
    )
    assert all(pump.definition.sent >= BURST for pump in pumps)
    assert sorted(delivered + queued) == triggered
    # ... in FIFO order per pump at each sink, across holds and replugs.
    for sink in sinks:
        for index in range(len(pumps)):
            mine = [n for n in sink.definition.pings if n // STRIDE == index]
            assert mine == sorted(mine)
    # A spare saw its pump's pings at most once each, and none triggered
    # after its destruction (``sent`` may trail one in-flight trigger).
    assert sum(len(spare.pings) for spare, _, _ in rewirer.destroyed) > 0
    for spare, index, sent_after in rewirer.destroyed:
        assert len(spare.pings) == len(set(spare.pings))
        assert all(divmod(n, STRIDE)[0] == index for n in spare.pings)
        assert all(n % STRIDE <= sent_after for n in spare.pings)
        assert spare.core.pending_events == 0
    system.shutdown()
