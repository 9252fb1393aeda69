"""Micro-probes: timed calls into public functions of one layer at a time.

Each probe builds its own tiny system, so it measures the layer alone and
cannot disturb the workload that called it.  They run only in traced runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

from repro import ComponentDefinition, ComponentSystem, Event, PortType, WorkStealingScheduler, handles
from repro.network import Address, AioTcpNetwork, FrameCodec, FrameStreamParser, Message
from repro.simulation import Simulation, make_event_queue

from .stats import median, wait_until


@dataclass(frozen=True, slots=True)
class Ball(Event):
    sent_at: float
    hops_left: int


class Court(PortType):
    positive = (Ball,)
    negative = (Ball,)


class Player(ComponentDefinition):
    """Returns every Ball it receives, recording how long it was in flight."""

    def __init__(self, serves: bool, flights: list, done: threading.Event) -> None:
        super().__init__()
        self.port = self.provides(Court) if serves else self.requires(Court)
        self.flights = flights
        self.done = done
        self.subscribe(self.on_ball, self.port)

    @handles(Ball)
    def on_ball(self, ball: Ball) -> None:
        now = perf_counter()
        self.flights.append(now - ball.sent_at)
        if ball.hops_left:
            self.trigger(Ball(perf_counter(), ball.hops_left - 1), self.port)
        else:
            self.done.set()


class PingPong(ComponentDefinition):
    def __init__(self, flights: list, done: threading.Event) -> None:
        super().__init__()
        self.server = self.create(Player, True, flights, done)
        client = self.create(Player, False, flights, done)
        self.connect(self.server.provided(Court), client.required(Court))


def scheduler_hop_us_p50(hops: int = 4000) -> float:
    """Median time for an event to travel from one component's trigger to
    the next component's handler under ``WorkStealingScheduler(workers=2)``."""
    flights: list[float] = []
    done = threading.Event()
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2))
    try:
        root = system.bootstrap(PingPong, flights, done).definition
        server = root.server.definition
        server.trigger(Ball(perf_counter(), hops), server.port)
        if not done.wait(timeout=20.0):
            raise TimeoutError("scheduler ping-pong did not finish")
    finally:
        system.shutdown()
    return 1e6 * median(flights[len(flights) // 10:])


class _Pair(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.sender = self.create(AioTcpNetwork, Address("127.0.0.1", 0, 1))
        self.receiver = self.create(AioTcpNetwork, Address("127.0.0.1", 0, 2))


def send_call_us_p50(template: Message, calls: int = 2000) -> float:
    """Median duration of the backend's send handler for one message
    (encode, outbox append, loop wake-up), called directly on a fresh pair."""
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2))
    try:
        pair = system.bootstrap(_Pair).definition
        sender, receiver = pair.sender.definition, pair.receiver.definition
        message = _readdress(template, sender.address, receiver.address)
        durations = []
        for _ in range(calls):
            start = perf_counter()
            sender.on_send(message)
            durations.append(perf_counter() - start)
        wait_until(lambda: receiver.received >= calls, 20.0, "probe messages to arrive")
    finally:
        system.shutdown()
    return 1e6 * median(durations[calls // 10:])


def _readdress(message: Message, source: Address, destination: Address) -> Message:
    fields = {name: getattr(message, name) for name in message.__dataclass_fields__}
    fields.update(source=source, destination=destination)
    return type(message)(**fields)


def parser_feed_us_per_msg(messages: list[Message], repeats: int = 7) -> float:
    """Incremental parse plus decode of one batch frame holding ``messages``."""
    if not messages:
        return 0.0
    codec = FrameCodec(adaptive=True)
    wire = codec.frame_batch(messages)
    timings = []
    for _ in range(repeats):
        parser = FrameStreamParser(codec)
        start = perf_counter()
        parsed = parser.feed(wire)
        timings.append(perf_counter() - start)
        if len(parsed) != len(messages):
            raise AssertionError("parser probe lost messages")
    return 1e6 * median(timings) / len(messages)


def socket_probes(delivered: list[Message]) -> dict[str, float]:
    """The three probes every traced socket workload ends with, on messages it delivered."""
    return {
        "runtime.sched.hop_us_p50": scheduler_hop_us_p50(),
        "network.aio.send_call_us_p50": send_call_us_p50(delivered[0]),
        "network.parser.feed_us_per_msg": parser_feed_us_per_msg(delivered),
    }


# ----------------------------------------------------------------- dispatch


@dataclass(frozen=True, slots=True)
class Tick(Event):
    pass


class Ticks(PortType):
    positive = (Tick,)
    negative = ()


class TickSink(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.requires(Ticks)
        self.seen = 0
        self.subscribe(self.on_tick, self.port)

    @handles(Tick)
    def on_tick(self, _tick: Tick) -> None:
        self.seen += 1


class TickSource(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(Ticks)


class Fan(ComponentDefinition):
    def __init__(self, fanout: int) -> None:
        super().__init__()
        self.source = self.create(TickSource)
        self.sinks = []
        for _ in range(fanout):
            self.add_sink()

    def add_sink(self) -> None:
        sink = self.create(TickSink)
        self.connect(self.source.provided(Ticks), sink.required(Ticks))
        self.start_child(sink)
        self.sinks.append(sink)


def dispatch_probe(batch: int = 2000, batches: int = 7, recompiles: int = 40) -> dict[str, float]:
    """Cost of ``trigger`` through compiled plans, and of compiling one."""
    metrics = {}
    tick = Tick()
    for fanout in (1, 8):
        simulation = Simulation(seed=0)
        fan = simulation.bootstrap(Fan, fanout).definition
        source = fan.source.definition
        simulation.run()
        per_trigger = []
        for _ in range(batches):
            start = perf_counter_ns()
            for _ in range(batch):
                source.trigger(tick, source.port)
            per_trigger.append((perf_counter_ns() - start) / batch)
            simulation.run()
        if sum(sink.definition.seen for sink in fan.sinks) != fanout * batch * batches:
            raise AssertionError("dispatch probe lost events")
        metrics[f"core.dispatch.trigger_ns_fanout{fanout}"] = median(per_trigger)
        if fanout == 1:
            compile_us = []
            for _ in range(recompiles):
                fan.add_sink()  # topology change: the next trigger recompiles
                start = perf_counter_ns()
                source.trigger(tick, source.port)
                compile_us.append((perf_counter_ns() - start) / 1e3)
                simulation.run()
            metrics["core.dispatch.plan_compile_us"] = median(compile_us)
        simulation.shutdown()
    return metrics


# -------------------------------------------------------------- event queue


def record_queue_stream(queue, clock, limit: int = 200_000):
    """Record ``(now, due)`` for every schedule on ``queue``; returns the
    list and a function that removes the recorder again.

    The queue's two public entry points are shadowed on the instance the
    simulation built (as ``taps.time_codec_in_place`` does for a codec).  If
    the program ever stops going through them, the recorder would see less
    than the queue's own ``scheduled_total``, and ``stop`` says so.
    """
    stream: list[tuple[float, float]] = []
    schedule, reschedule = queue.schedule, queue.reschedule
    scheduled_before = queue.scheduled_total

    def recording_schedule(at, action):
        if len(stream) < limit:
            stream.append((clock.now(), at))
        return schedule(at, action)

    def recording_reschedule(entry, at):
        if len(stream) < limit:
            stream.append((clock.now(), at))
        return reschedule(entry, at)

    queue.schedule = recording_schedule
    queue.reschedule = recording_reschedule

    def stop() -> None:
        del queue.schedule, queue.reschedule
        scheduled = queue.scheduled_total - scheduled_before
        if len(stream) != min(scheduled, limit):
            raise AssertionError(
                f"the queue recorder saw {len(stream)} of {scheduled} schedules: "
                "the simulation no longer goes through queue.schedule/reschedule")

    return stream, stop


def replay_queue_stream(stream: list[tuple[float, float]]) -> dict[str, float]:
    """Replay a recorded schedule stream against a fresh default queue."""
    if not stream:
        return {}
    queue = make_event_queue()
    action = int  # any callable; never called
    schedule_ns = pop_ns = 0
    popped = 0
    index, size = 0, len(stream)
    while index < size:
        now = stream[index][0]
        start = perf_counter_ns()
        while True:
            batch = queue.pop_batch(now)
            if batch is None or batch[1] is None:
                break
            popped += len(batch[1])
        middle = perf_counter_ns()
        while index < size and stream[index][0] == now:
            queue.schedule(stream[index][1], action)
            index += 1
        schedule_ns += perf_counter_ns() - middle
        pop_ns += middle - start
    start = perf_counter_ns()
    while True:
        batch = queue.pop_batch(None)
        if batch is None:
            break
        popped += len(batch[1])
    pop_ns += perf_counter_ns() - start
    if popped != size:
        raise AssertionError(f"queue replay popped {popped} of {size} entries")
    return {
        "simulation.queue.schedule_ns": schedule_ns / size,
        "simulation.queue.pop_ns_per_entry": pop_ns / size,
    }
