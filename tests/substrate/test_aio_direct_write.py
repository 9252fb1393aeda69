"""AioTcpNetwork's direct-write path and the containment rule around it.

A handler's sends reach the network component through its direct entry
and are written by the sender's own thread when the handler returns (one
batch per peer), or as soon as a batch is full — provided the connection
is established and nothing is in flight; everything else still goes
through the loop.  These tests pin what that must not break: per-pair
FIFO when the direct write runs into a full socket mid-batch,
connections being closed under a running sender, senders that are not
scheduler workers, the batch and outbox bound of one handler's sends,
and ping-pong that never wakes the loop — plus the rule that one bad
frame or one raising codec costs one connection, never the loop.
"""

from __future__ import annotations

import random
import socket
import sys
import threading
from collections import deque
from dataclasses import dataclass

from repro import ComponentDefinition, ComponentSystem, Event, PortType, WorkStealingScheduler
from repro.network import Address, AioTcpNetwork, FrameCodec, Message, Network

from tests.kit import Scaffold, inject, wait_until


@dataclass(frozen=True)
class Note(Message):
    n: int = 0
    lane: int = 0
    body: bytes = b""


@dataclass(frozen=True)
class Burst(Message):
    count: int = 0


@dataclass(frozen=True)
class Notes(Event):
    """Have a Peer send Notes ``first, first + 1, ...`` from one handler."""

    to: Address
    first: int
    sizes: tuple[int, ...]


class Orders(PortType):
    negative = (Notes,)


class Peer(ComponentDefinition):
    """Records what arrives per lane; answers a Burst with that many Notes
    from one handler execution, echoes lane-9 Notes (ping-pong), and sends
    the Notes it is ordered to from one handler execution."""

    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.orders = self.provides(Orders)
        self.lanes: dict[int, list[int]] = {}
        self.subscribe(self.on_note, self.network, event_type=Note)
        self.subscribe(self.on_burst, self.network, event_type=Burst)
        self.subscribe(self.on_notes, self.orders, event_type=Notes)

    def on_note(self, note: Note) -> None:
        self.lanes.setdefault(note.lane, []).append(note.n)
        if note.lane == 9 and note.n > 0:
            self.send(note.source, note.n - 1, lane=9)

    def on_burst(self, burst: Burst) -> None:
        for n in range(burst.count):
            self.send(burst.source, n, lane=5)

    def on_notes(self, notes: Notes) -> None:
        for n, size in enumerate(notes.sizes, notes.first):
            self.send(notes.to, n, body=b"x" * size)

    def send(self, to: Address, n: int, lane: int = 0, body: bytes = b"") -> None:
        self.trigger(Note(self.address, to, n=n, lane=lane, body=body), self.network)


def _build(names=("a", "b"), **kwargs):
    system = ComponentSystem(
        scheduler=WorkStealingScheduler(workers=2), fault_policy="record"
    )
    peers, nets = {}, {}

    def build(scaffold):
        for name in names:
            net = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0), **kwargs)
            peer = scaffold.create(Peer, net.definition.address)
            scaffold.connect(net.provided(Network), peer.required(Network))
            peers[name], nets[name] = peer.definition, net.definition

    system.bootstrap(Scaffold, build)
    return system, peers, nets


def _warm(sender: Peer, receiver: Peer, lane: int = 0) -> None:
    sender.send(receiver.address, -1, lane=lane)
    assert wait_until(lambda: receiver.lanes.get(lane) == [-1], timeout=10)
    receiver.lanes[lane].clear()


def _settled(*nets: AioTcpNetwork) -> None:
    """Wait until no thread writes on a connection of ``nets``.

    A message can be delivered before the thread that wrote it has let go
    of the connection's write lock; the counters it bumps are final only
    once that lock is free.
    """
    assert wait_until(
        lambda: not any(c.write_lock.locked() for net in nets for c in list(net._conns)),
        timeout=10,
    )


def _send_from_handler(sender: Peer, net: AioTcpNetwork, to: Address, first: int,
                       sizes: list[int]) -> None:
    """Have one handler of ``sender`` send Notes ``first...`` and wait until
    the network component has them: they are written when it returns."""
    queued = net.sent
    inject(sender, Orders, Notes(to, first, tuple(sizes)))
    assert wait_until(lambda: net.sent >= queued + len(sizes), timeout=10, interval=0)


class _HighWater(deque):
    """An outbox that remembers the most frames it held at once."""

    high = 0

    def append(self, item) -> None:
        super().append(item)
        if len(self) > self.high:
            self.high = len(self)


# -------------------------------------------------------------- direct write


def test_direct_write_into_full_socket_keeps_fifo_and_loses_nothing():
    total, stalled_part = 20_000, 8_000
    rng = random.Random(12)
    sizes = [rng.choice((0, 16, 700, 3000, 20_000)) for _ in range(total)]
    system, peers, nets = _build(outbound_limit=1 << 16)
    a, b, net_a, net_b = peers["a"], peers["b"], nets["a"], nets["b"]
    gate = threading.Event()
    try:
        _warm(a, b)
        key = (b.address.host, b.address.port)
        net_a._peers[key].conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        before = net_a.status_snapshot()
        stopped = threading.Event()
        net_b._post(lambda: (stopped.set(), gate.wait(timeout=60)))
        assert stopped.wait(timeout=10)  # the receiver's loop no longer reads

        # Small groups from one handler each: the group is written from the
        # worker's thread when the handler returns, so the first EAGAIN /
        # partial write is met there, with a batch tail left in flight.
        for first in range(0, stalled_part, 16):
            _send_from_handler(a, net_a, b.address, first, sizes[first:first + 16])
        stalled = net_a.status_snapshot()
        assert stalled["direct_writes"] > before["direct_writes"]
        assert stalled["queued_frames"] > 0  # the socket refused; frames wait
        assert b.lanes.get(0, []) == []

        gate.set()  # the receiver resumes while the sender keeps sending
        for n in range(stalled_part, total):
            a.send(b.address, n, body=b"x" * sizes[n])
        assert wait_until(lambda: len(b.lanes.get(0, [])) == total, timeout=60)
        assert b.lanes[0] == list(range(total))
        final = net_a.status_snapshot()
        assert final["dropped_frames"] == 0 and final["reconnects"] == 0
        assert final["queued_frames"] == 0
        assert not system.unhandled_faults
    finally:
        gate.set()
        system.shutdown()


def test_connections_dropped_under_a_running_sender():
    system, peers, nets = _build()
    a, b, net_a, net_b = peers["a"], peers["b"], nets["a"], nets["b"]
    errors: list[BaseException] = []
    stop = threading.Event()

    # Which connection each Note came in on (b's loop thread is the only
    # caller): ordering is a promise per connection, not across a redial.
    arrivals: list[tuple[int, int, int]] = []
    deliver = net_b._deliver

    def tagging_deliver(message, conn):
        if isinstance(message, Note):
            arrivals.append((id(conn), message.lane, message.n))
        deliver(message, conn)

    net_b._deliver = tagging_deliver

    def hammer() -> None:
        try:
            while not stop.is_set():
                net_a._drop_connections()
        except BaseException as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    dropper = threading.Thread(target=hammer, daemon=True)
    try:
        _warm(a, b)
        arrivals.clear()
        dropper.start()
        sent = 0
        try:
            for sent in range(1, 4001):
                a.send(b.address, sent, lane=0)  # a scheduler worker sends
                net_a.on_send(Note(a.address, b.address, n=sent, lane=1))  # this thread does
        except BaseException as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)
        stop.set()
        dropper.join(timeout=30)
        assert not dropper.is_alive()
        assert errors == []
        # Whatever was still queued when the last connection went goes out
        # on the redial, and so does a send made after it.
        a.send(b.address, sent + 1)
        assert wait_until(lambda: sent + 1 in b.lanes.get(0, []), timeout=20)
        assert wait_until(lambda: net_a.status_snapshot()["queued_frames"] == 0, timeout=20)
        # Frames racing a close are lost (as with the oracle) but never
        # repeated, and what one connection carries arrives in the order it
        # was sent, whichever thread wrote it.  Bytes the kernel still held
        # for a closed connection may be read after the next one's, so no
        # order is promised across the redial.
        for lane in (0, 1):
            got = b.lanes[lane]
            assert len(got) > 0 and len(got) == len(set(got))
        by_stream: dict[tuple[int, int], list[int]] = {}
        for conn_id, lane, n in arrivals:
            by_stream.setdefault((conn_id, lane), []).append(n)
        for stream in by_stream.values():
            assert stream == sorted(stream)
        assert net_a.status_snapshot()["loop_errors"] == 0
        assert not system.unhandled_faults
    finally:
        stop.set()
        system.shutdown()


def test_frames_queued_at_a_forced_close_go_out_without_another_send():
    total = 3000
    # Every timer the loop could otherwise stumble over (the first dial's
    # connect deadline, the idle sweep) lies beyond this test's patience.
    system, peers, nets = _build(outbound_limit=1 << 16, connect_timeout=60.0)
    a, b, net_a, net_b = peers["a"], peers["b"], nets["a"], nets["b"]
    gate = threading.Event()
    try:
        _warm(a, b)
        key = (b.address.host, b.address.port)
        net_a._peers[key].conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        stopped = threading.Event()
        net_b._post(lambda: (stopped.set(), gate.wait(timeout=60)))
        assert stopped.wait(timeout=10)  # the receiver's loop no longer reads
        for n in range(total):
            a.send(b.address, n, body=b"x" * 700)
        assert wait_until(lambda: net_a.sent == total + 1, timeout=20)
        # The loop has seen every send and now only waits for the socket.
        assert wait_until(lambda: not net_a._dirty, timeout=10)
        assert net_a.status_snapshot()["queued_frames"] > 256  # full socket, long queue

        net_a._drop_connections()  # and nothing is sent after this
        gate.set()
        # The tail of the queue must not wait for some later timer or for
        # a next send: the close itself schedules the redial.
        assert wait_until(lambda: total - 1 in b.lanes.get(0, []), timeout=10)
        assert wait_until(lambda: net_a.status_snapshot()["queued_frames"] == 0, timeout=10)
        got = b.lanes[0]
        assert len(got) == len(set(got))
        assert net_a.status_snapshot()["loop_errors"] == 0
        assert not system.unhandled_faults
    finally:
        gate.set()
        system.shutdown()


def test_on_send_from_threads_that_are_not_workers():
    per_lane = 3000
    system, peers, nets = _build()
    a, b, net_a = peers["a"], peers["b"], nets["a"]
    interval = sys.getswitchinterval()
    try:
        _warm(a, b)
        sys.setswitchinterval(1e-5)  # force the senders to interleave

        def blast(lane: int) -> None:
            for n in range(per_lane):
                net_a.on_send(Note(a.address, b.address, n=n, lane=lane))

        outsiders = [threading.Thread(target=blast, args=(lane,)) for lane in (1, 2, 3)]
        for thread in outsiders:
            thread.start()
        for n in range(per_lane):
            a.send(b.address, n, lane=0)  # and a worker, through the port
        for thread in outsiders:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert wait_until(
            lambda: all(len(b.lanes.get(lane, [])) == per_lane for lane in range(4)),
            timeout=60,
        )
        for lane in range(4):
            assert b.lanes[lane] == list(range(per_lane))
        snapshot = net_a.status_snapshot()
        assert snapshot["sent"] == 4 * per_lane + 1
        assert snapshot["batched_messages"] == snapshot["sent"]
        assert not system.unhandled_faults
    finally:
        sys.setswitchinterval(interval)
        system.shutdown()


def test_ping_pong_never_wakes_the_loop_and_a_burst_still_coalesces():
    system, peers, nets = _build()
    a, b, net_a, net_b = peers["a"], peers["b"], nets["a"], nets["b"]
    try:
        a.send(b.address, 200, lane=9)  # warm-up: dial, hello, 200 legs
        assert wait_until(lambda: 0 in a.lanes.get(9, []) + b.lanes.get(9, []), timeout=20)
        _settled(net_a, net_b)
        warm_a, warm_b = net_a.status_snapshot(), net_b.status_snapshot()
        a.lanes.clear(), b.lanes.clear()

        a.send(b.address, 1000, lane=9)  # 1001 legs, one message in flight at a time
        assert wait_until(lambda: 0 in a.lanes.get(9, []) + b.lanes.get(9, []), timeout=30)
        _settled(net_a, net_b)
        after_a, after_b = net_a.status_snapshot(), net_b.status_snapshot()
        for warm, after in ((warm_a, after_a), (warm_b, after_b)):
            assert after["loop_wakeups"] == warm["loop_wakeups"]
            assert after["direct_writes"] - warm["direct_writes"] >= 500
            assert after["sent"] - warm["sent"] == after["direct_writes"] - warm["direct_writes"]

        # 64 sends from one handler execution leave as one batch frame,
        # written by b's worker when the handler returns.
        a.trigger(Burst(a.address, b.address, count=64), a.network)
        assert wait_until(lambda: a.lanes.get(5) == list(range(64)), timeout=20)
        _settled(net_b)
        burst = net_b.status_snapshot()
        assert burst["batched_messages"] - after_b["batched_messages"] == 64
        assert burst["batches"] - after_b["batches"] == 1
        assert burst["direct_writes"] - after_b["direct_writes"] == 1
        assert burst["loop_wakeups"] == after_b["loop_wakeups"]
    finally:
        system.shutdown()


def test_a_thousand_sends_from_one_handler_leave_in_order_and_in_bounded_batches():
    system, peers, nets = _build()
    a, b, net_a, net_b = peers["a"], peers["b"], nets["a"], nets["b"]
    try:
        _warm(a, b)
        _warm(b, a, lane=5)
        peer = net_b._peers[(a.address.host, a.address.port)]
        with net_b._lock:
            peer.outbox = outbox = _HighWater(peer.outbox)
        sizes, batch_buffers = [], net_b.codec.batch_buffers

        def recording(parts):
            sizes.append(len(parts))
            return batch_buffers(parts)

        net_b.codec.batch_buffers = recording
        a.trigger(Burst(a.address, b.address, count=1000), a.network)
        assert wait_until(lambda: len(a.lanes.get(5, [])) == 1000, timeout=20)
        assert a.lanes[5] == list(range(1000))
        assert sum(sizes) == 1000 and max(sizes) <= 128
        assert outbox.high <= 128
        assert net_b.status_snapshot()["dropped_frames"] == 0
        assert not system.unhandled_faults
    finally:
        system.shutdown()


# --------------------------------------------------------------- containment


class _PoisonedCodec(FrameCodec):
    """Raises something that is not a SerializationError for a marked frame."""

    def decode_payload(self, flags, payload):
        if b"POISON" in bytes(payload):
            raise ValueError("poisoned frame")
        return super().decode_payload(flags, payload)


def test_exception_in_a_selector_callback_costs_one_connection_not_the_loop():
    system, peers, nets = _build(
        names=("a", "b", "c"), codec=_PoisonedCodec(compress_threshold=None)
    )
    a, b, c, net_b = peers["a"], peers["b"], peers["c"], nets["b"]
    try:
        _warm(a, b, lane=1)
        _warm(c, b, lane=2)
        assert net_b.status_snapshot()["connections"] == 2

        a.send(b.address, 1, lane=1, body=b"POISON")
        assert wait_until(lambda: net_b.status_snapshot()["loop_errors"] == 1, timeout=10)
        assert wait_until(lambda: net_b.status_snapshot()["connections"] == 1, timeout=10)

        for n in range(50):  # the other peer's traffic keeps flowing
            c.send(b.address, n, lane=2)
        assert wait_until(lambda: b.lanes[2] == list(range(50)), timeout=10)
        # ... and the shed peer gets a new connection on its next send.
        a.send(b.address, 2, lane=1)
        assert wait_until(lambda: b.lanes[1] == [2], timeout=10)
        assert net_b.status_snapshot()["loop_errors"] == 1
        assert not system.unhandled_faults
    finally:
        system.shutdown()


def test_exception_in_a_direct_write_does_not_fault_the_component():
    system, peers, nets = _build()
    a, b, net_a = peers["a"], peers["b"], nets["a"]
    try:
        _warm(a, b)
        real, raised = net_a.codec.batch_buffers, []

        def batch_buffers(parts):
            if not raised:
                raised.append(True)
                raise RuntimeError("injected")
            return real(parts)

        net_a.codec.batch_buffers = batch_buffers
        a.send(b.address, 1)  # written when on_send returns, and lost, on the worker's thread
        assert wait_until(lambda: net_a.status_snapshot()["loop_errors"] == 1, timeout=10)
        assert wait_until(lambda: net_a.status_snapshot()["connections"] == 0, timeout=10)
        assert net_a.status_snapshot()["dropped_frames"] == 1  # the lost frame is counted
        a.send(b.address, 2)  # redials
        assert wait_until(lambda: b.lanes.get(0) == [2], timeout=10)
        assert not system.unhandled_faults
    finally:
        system.shutdown()
