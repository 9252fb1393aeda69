"""AioTcpNetwork: the selector-based non-blocking TCP Network backend.

The one socket transport in ``src/``, for deployed nodes
(``python -m repro.cats``) and shard workers alike: the stand-in for
the paper's Grizzly/Netty/MINA components (section 3) — automatic
connection management, length-prefixed frames, pluggable codec,
compression.  The blocking thread-per-connection backend it replaced is
kept verbatim in ``tests/reference/tcp.py`` as the differential oracle;
it imports this module's hello handshake, so the two interoperate on one
wire.  Execution model:

- **one event-loop thread** owns the selector, every read, and every
  connection's life cycle (dial, ``EVENT_WRITE`` interest, redial,
  backoff, idle reaping); the blocking oracle burns a reader and a
  writer thread per connection.  An iteration costs the sockets that
  are ready: timers hang off one stored next-deadline, and the peer
  table is walked only when that deadline passes;
- **delivery on the loop thread**: the components one read's messages
  make ready (and those their handlers make ready in turn) run on the
  loop thread through ``ComponentCore.execute``, up to ``_LOOP_BUDGET``
  executions per read (``loop_slots``); the rest go to the workers.  A
  component already ready or busy elsewhere is left to its owner, and a
  handler that raises there is a ``Fault``, never a ``loop_errors`` count;
- **write ownership**: a connection has one outbox, one unsent batch
  tail and one ``write_lock``; whoever holds the lock is the only writer
  of that socket, and there is one routine (``_drain``) that turns the
  outbox into batch frames and ``sendmsg`` calls.  Both the loop and a
  sending handler take the lock with a try-lock; ``_close_conn`` holds
  it while it closes the socket, so no thread is ever inside
  ``sendmsg`` on a closing descriptor.  One outbox and one writer at a
  time is what keeps per-pair FIFO while the connection lives;
- **sends on the sender's thread**: ``on_send`` is the direct entry of
  the Network port (``ComponentDefinition.direct_entry``), so a
  handler's send does not take this component's mailbox: the sending
  handler encodes the message and appends it to the peer's outbox
  itself, on its own thread.  The mailbox is used, exactly as before,
  only while this component is not started, has work queued or is
  executing, or when the trigger comes from a thread that runs no
  handler;
- **write at handler return**: a send appended from inside a handler
  asks ``repro.core.component.after_handler`` for a flush of its peer.
  When the handler returns, that flush takes write ownership and drains
  the outbox — every send the handler made to that peer, folded into
  batch frames — with no self-pipe byte and no thread switch.  A peer
  whose outbox reaches ``_MAX_BATCH`` is flushed at once, so one handler
  never holds more than a batch for one peer.  If the socket refuses
  bytes (``EAGAIN``, partial write, error), the connection is still
  dialling, or the try-lock is lost, the queue stays as it is and the
  loop is woken to carry on;
- **write coalescing**: a batch frame (``FLAG_BATCH``, count-prefixed)
  goes out with a single ``sendmsg`` scatter/gather syscall — headers
  and payloads ride as separate iovec segments, never concatenated.
  Sends from a thread that runs no handler (``on_send`` called
  directly) only accumulate and wake the loop, which folds whatever
  has queued into batches.  The same happens under backpressure: while
  a batch tail is in flight, everything sent accumulates behind it and
  the loop writes it when the socket drains;
- **zero-copy receive**: one reusable buffer is ``recv_into``-ed and fed
  to a per-connection :class:`FrameStreamParser`, which decodes from
  ``memoryview`` slices and copies only incomplete tails;
- **connection pool**: connections are dialed non-blocking with
  exponential reconnect backoff, reused in both directions via the
  hello handshake, and reaped after ``idle_timeout`` of silence;
- **bounded outbox**: each peer's queue has a high-water mark
  (``outbound_limit``); past it the oldest queued frame is dropped, and
  drops are counted and surfaced over the ``Status`` port;
- **containment**: an unexpected exception in a selector callback or in
  a write from a sender's thread sheds that one connection and is
  counted (``loop_errors``); the loop and every other connection live
  on.  One raised while encoding a send is counted the same way and
  never reaches the sending handler.

Delivery semantics match the oracle: per-peer-pair FIFO while a
connection lives, no delivery guarantee across a connection failure
(frames already handed to the kernel or folded into a partially-sent
batch are lost; queued frames survive and go out after the redial).
"""

from __future__ import annotations

import errno
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..core.component import ComponentDefinition, after_handler, deliver_and_run
from ..core.handler import handles
from ..protocols.monitor.port import (
    Status,
    StatusRequest,
    StatusResponse,
    StatusSnapshotEnd,
)
from .address import Address
from .compact import register_compact
from .message import Message, Network, NetworkControlMessage
from .serialization import (
    BATCH_OVERHEAD,
    FRAME_OVERHEAD,
    FrameCodec,
    FrameStreamParser,
    SerializationError,
)

#: iovec segments per sendmsg call, safely under every platform's IOV_MAX.
_IOV_CAP = 512
#: Messages folded into one batch frame; 2 segments each plus the batch
#: header keeps a full batch within _IOV_CAP.  Also the most sends one
#: handler queues for a peer before it writes them without waiting to return.
_MAX_BATCH = 128
#: Redial backoff: doubles per failure from _BACKOFF_BASE up to _BACKOFF_MAX
#: seconds; a connection that lived _BACKOFF_MAX seconds restarts it.
_BACKOFF_BASE = 0.05
_BACKOFF_MAX = 2.0
_RECV_BUFFER = 256 * 1024
#: Executions the loop thread runs itself after one read's deliveries;
#: what is still ready then goes to the scheduler's workers.
_LOOP_BUDGET = 16
#: "No timer pending": the loop then sleeps until a socket or the self-pipe wakes it.
_NEVER = float("inf")


@register_compact
@dataclass(frozen=True, slots=True)
class _Hello(NetworkControlMessage):
    """Handshake frame: tells the acceptor the dialer's listen address."""


class _Peer:
    """Everything this node knows about one remote endpoint."""

    __slots__ = (
        "key",
        "outbox",
        "conn",
        "backoff",
        "next_dial_at",
    )

    def __init__(self, key: tuple[str, int]) -> None:
        self.key = key
        self.outbox: deque[tuple[int, bytes]] = deque()
        self.conn: Optional["_AioConnection"] = None
        self.backoff = 0.0
        self.next_dial_at = 0.0


class _AioConnection:
    """One non-blocking socket plus its parse and flush state."""

    __slots__ = (
        "sock",
        "peer",
        "parser",
        "write_lock",
        "inflight",
        "connecting",
        "connect_deadline",
        "established_at",
        "last_active",
        "events",
        "closed",
    )

    def __init__(self, sock: socket.socket, parser) -> None:
        self.sock = sock
        self.peer: Optional[_Peer] = None
        self.parser = parser
        # Write ownership: held (try-lock) by whichever thread is draining
        # the peer's outbox into this socket, and by _close_conn.  Guards
        # ``inflight``, ``closed`` becoming true, and the socket's write side.
        self.write_lock = threading.Lock()
        self.inflight: list = []  # unsent tail of the current batch (memoryviews)
        self.connecting = False
        self.connect_deadline = 0.0
        self.established_at = self.last_active = time.monotonic()
        self.events = 0
        self.closed = False


# A transport endpoint is process-local: migration means binding a fresh
# listener at the destination and letting peers redial, so section-2.6
# state transfer is deliberately not implemented.
class AioTcpNetwork(ComponentDefinition):  # repro: noqa[P006]
    """Provides Network over non-blocking TCP with write coalescing."""

    def __init__(
        self,
        address: Address,
        codec: Optional[FrameCodec] = None,
        connect_timeout: float = 5.0,
        outbound_limit: int = 8192,
        idle_timeout: Optional[float] = 120.0,
    ) -> None:
        super().__init__()
        self.address = address
        self.port = self.provides(Network)
        self.status = self.provides(Status)
        self.codec = codec if codec is not None else FrameCodec(adaptive=True)
        self.connect_timeout = connect_timeout
        self.outbound_limit = outbound_limit
        self.idle_timeout = idle_timeout

        # Counters.  Every connection has its own writer (the holder of
        # its write_lock, a handler thread or the loop), so whatever more
        # than one thread can bump — sent, dropped_frames, batches,
        # batched_messages, bytes_sent, direct_writes, loop_wakeups,
        # loop_errors — mutates under _lock.  received, bytes_received,
        # reconnects and reaped belong to the loop thread alone.
        self.sent = 0
        self.received = 0
        self.dropped_frames = 0
        self.batches = 0
        self.batched_messages = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reconnects = 0
        self.reaped = 0
        self.direct_writes = 0  # outbox drains a sender's thread did itself
        self.loop_wakeups = 0  # self-pipe bytes: times a thread had to wake the loop
        self.loop_errors = 0  # unexpected exceptions contained to one connection
        self.loop_slots = 0  # executions the loop thread ran itself (deliver_and_run)

        self._peers: dict[tuple[str, int], _Peer] = {}
        self._conns: set[_AioConnection] = set()  # every live socket, incl. pre-hello
        # Endpoint state is process-local (see the class comment): the
        # lock, sockets and loop thread never cross a shard boundary.
        self._lock = threading.Lock()  # repro: noqa[D004]
        self._closing = False

        self._selector = selectors.DefaultSelector()  # repro: noqa[D004]
        self._wake_r, self._wake_w = socket.socketpair()  # repro: noqa[D004]
        self._wake_r.setblocking(False)
        self._waked = False
        self._dirty: deque[_Peer] = deque()
        self._commands: deque = deque()
        self._recv_buf = bytearray(_RECV_BUFFER)
        self._recv_view = memoryview(self._recv_buf)
        # Loop-thread timers: the earliest moment anything is due (a
        # connect deadline, a dial backoff, the idle sweep).  Setting a
        # deadline pulls it earlier; _run_timers recomputes it.
        self._next_sweep = self._sweep_after(time.monotonic())
        self._next_deadline = self._next_sweep

        self._server = socket.create_server(  # repro: noqa[D004]
            (address.host, address.port), reuse_port=False
        )
        self._server.setblocking(False)
        self.address = Address(address.host, self._server.getsockname()[1], address.node_id)
        # Selector key data: a connection, or the callback of the two
        # sockets that are not connections.
        self._selector.register(self._server, selectors.EVENT_READ, self._on_accept)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._on_wakeup)
        self._loop = threading.Thread(  # repro: noqa[D004]
            target=self._run_loop, name=f"aio-net-{self.address}", daemon=True
        )
        self._loop.start()
        self.subscribe(self.on_send, self.port)
        self.direct_entry(self.port, Message, self.on_send)
        self.subscribe(self.on_status, self.status)

    # --------------------------------------------------------------- sending

    @handles(Message)
    def on_send(self, message: Message) -> None:
        """Queue ``message`` for its peer; safe from any thread.

        Inside a handler (this component's own, or a sender's through the
        direct entry), on an established connection with nothing in
        flight, the peer is flushed when that handler returns, or at once
        when ``_MAX_BATCH`` sends wait for it.  Otherwise the loop is
        woken and writes it.
        """
        destination = message.destination
        if destination == self.address or (
            destination.host == self.address.host
            and destination.port == self.address.port
        ):
            self.trigger(message, self.port)
            return
        try:
            # Encoding on the sender's thread keeps the loop thread lean
            # and parallelises serialization across scheduler workers.
            # The adaptive-compression stats inside the codec may race
            # between workers; they only steer a send-side heuristic.
            part = self.codec.encode_payload(message)
        except SerializationError:
            self.log.exception("dropping unserializable message")
            return
        except Exception:  # noqa: BLE001 - must not reach the sending handler
            self._contained("encode")
            return
        key = (destination.host, destination.port)
        flush_now = need_wake = False
        # The lock guards only in-memory deque/dict operations (both here
        # and on the loop thread); it is never held across a syscall, so
        # the stall P005 warns about is a few hundred nanoseconds.
        with self._lock:  # repro: noqa[P005]
            if self._closing:
                return
            peer = self._peers.get(key)
            if peer is None:
                # Evicted by the reap pass once the peer goes quiet, so
                # the table tracks live correspondents, not history.
                peer = self._peers[key] = _Peer(key)
            if len(peer.outbox) >= self.outbound_limit:
                peer.outbox.popleft()
                self.dropped_frames += 1
            peer.outbox.append(part)
            self.sent += 1
            conn = peer.conn
            if (
                conn is not None
                and not conn.connecting
                and not conn.inflight
                and after_handler(self._flush_peer, peer)
            ):
                flush_now = len(peer.outbox) >= _MAX_BATCH
            else:
                # Dialling, backpressured, or no handler to wait for.
                self._dirty.append(peer)
                need_wake = self._claim_wake()
        if flush_now:
            self._flush_peer(peer)
        elif need_wake:
            self._wake()

    def _flush_peer(self, peer: _Peer) -> None:
        """Write ``peer``'s outbox from this thread, else hand it to the loop."""
        conn = peer.conn
        if conn is None or conn.connecting or not self._write_direct(peer, conn):
            self._notify(peer)

    def _write_direct(self, peer: _Peer, conn: "_AioConnection") -> bool:
        """Drain ``peer``'s outbox from the sender's own thread.

        True when nothing is left for the loop to do.  Whatever goes
        wrong — a lost try-lock, a socket that refuses bytes, an error —
        the queue stays as it is and the caller wakes the loop, which
        alone owns ``EVENT_WRITE`` interest, redial and backoff.  Never
        raises: a transport failure must not fault the component.
        """
        if not conn.write_lock.acquire(blocking=False):
            return False
        try:
            if not peer.outbox and not conn.inflight:
                return True  # an earlier flush took it all
            drained = self._drain(conn)
            if drained:
                # Counted before the write lock is let go, like the
                # counters _drain bumps: whoever finds every write lock
                # free reads final figures.
                with self._lock:
                    self.direct_writes += 1
        except OSError:
            return False  # the loop's own attempt meets the error and redials
        except Exception:  # noqa: BLE001 - contained to this one connection
            self._contained("direct write")
            self._post(lambda: self._connection_broke(conn))
            return True
        finally:
            conn.write_lock.release()
        # A sender that appended while we held the lock lost its try-lock
        # and woke the loop, whose own try-lock we may have beaten too:
        # whoever lets go of the lock looks at the queue once more.
        return drained and not peer.outbox

    def _claim_wake(self) -> bool:
        """True when the caller must write the self-pipe byte (``_lock`` held)."""
        if self._waked:
            return False
        self._waked = True
        self.loop_wakeups += 1
        return True

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass

    def _notify(self, peer: _Peer) -> None:
        with self._lock:
            self._dirty.append(peer)
            need_wake = self._claim_wake()
        if need_wake:
            self._wake()

    def _post(self, command) -> None:
        """Run ``command`` on the loop thread (test and teardown hook)."""
        with self._lock:
            self._commands.append(command)
            need_wake = self._claim_wake()
        if need_wake:
            self._wake()

    # ---------------------------------------------------------------- status

    @handles(StatusRequest)
    def on_status(self, _request: StatusRequest) -> None:
        self.trigger(StatusResponse("aio-network", self.status_snapshot()), self.status)
        self.trigger(StatusSnapshotEnd(), self.status)

    def status_snapshot(self) -> dict:
        with self._lock:
            queued = sum(len(p.outbox) for p in self._peers.values())
        connections = len(self._conns)
        return {
            "address": str(self.address),
            "sent": self.sent,
            "received": self.received,
            "dropped_frames": self.dropped_frames,
            "queued_frames": queued,
            "connections": connections,
            "batches": self.batches,
            "batched_messages": self.batched_messages,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "reconnects": self.reconnects,
            "reaped": self.reaped,
            "direct_writes": self.direct_writes,
            "loop_wakeups": self.loop_wakeups,
            "loop_errors": self.loop_errors,
            "loop_slots": self.loop_slots,
        }

    # ------------------------------------------------------------- event loop

    def _run_loop(self) -> None:
        select = self._selector.select
        try:
            now = time.monotonic()
            while not self._closing:
                deadline = self._next_deadline
                ready = select(None if deadline == _NEVER else max(0.0, deadline - now))
                now = time.monotonic()  # the one clock reading of the iteration
                for key, mask in ready:
                    if self._closing:
                        break
                    target = key.data
                    conn = target if target.__class__ is _AioConnection else None
                    try:
                        if conn is not None:
                            self._on_ready(conn, mask, now)
                        else:
                            target()
                    except Exception:  # noqa: BLE001 - costs one connection, not the loop
                        self._contained("selector callback", conn)
                if self._dirty or self._commands:
                    self._process_dirty()
                if now >= self._next_deadline:
                    self._run_timers(now)
        except Exception:  # noqa: BLE001 - a dead loop must not die silently
            if not self._closing:
                self.log.exception("aio network loop crashed")
        finally:
            self._teardown_sockets()

    def _contained(self, what: str, conn: Optional[_AioConnection] = None) -> None:
        """An unexpected exception (being handled) costs at most ``conn``."""
        self.log.exception("aio network: %s failed; shedding the connection", what)
        with self._lock:
            self.loop_errors += 1
        if conn is not None:
            self._connection_broke(conn)

    def _pull_deadline(self, when: float) -> None:
        if when < self._next_deadline:
            self._next_deadline = when

    def _sweep_after(self, now: float) -> float:
        """When the next idle-reap / peer-evict sweep is due."""
        return _NEVER if self.idle_timeout is None else now + self.idle_timeout / 4

    def _on_wakeup(self) -> None:
        try:
            self._wake_r.recv(4096)
        except (BlockingIOError, OSError):
            pass
        with self._lock:
            self._waked = False

    def _process_dirty(self) -> None:
        while self._dirty or self._commands:
            with self._lock:
                peers = list(dict.fromkeys(self._dirty))
                self._dirty.clear()
                commands = list(self._commands)
                self._commands.clear()
            for command in commands:
                try:
                    command()
                except Exception:  # noqa: BLE001 - a posted command must not kill the loop
                    self._contained("posted command")
            for peer in peers:
                try:
                    self._ensure_flushing(peer)
                except Exception:  # noqa: BLE001 - costs one connection, not the loop
                    self._contained("flush", peer.conn)

    def _ensure_flushing(self, peer: _Peer) -> None:
        conn = peer.conn
        if conn is None or conn.closed:
            self._maybe_dial(peer)
            return
        if not conn.connecting:
            self._flush(conn)

    # ------------------------------------------------------------ connecting

    def _maybe_dial(self, peer: _Peer) -> None:
        if self._closing or not peer.outbox:
            return
        now = time.monotonic()
        if now < peer.next_dial_at:
            self._pull_deadline(peer.next_dial_at)  # backoff window; the timer pass retries
            return
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            result = sock.connect_ex(peer.key)
        except OSError:
            self._dial_failed(peer)
            return
        if result not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            sock.close()
            self._dial_failed(peer)
            return
        conn = _AioConnection(sock, FrameStreamParser(self.codec))
        conn.peer = peer
        conn.connecting = True
        conn.connect_deadline = now + self.connect_timeout
        self._pull_deadline(conn.connect_deadline)
        peer.conn = conn
        self._conns.add(conn)
        self._register(conn, selectors.EVENT_WRITE)

    def _dial_failed(self, peer: _Peer) -> None:
        peer.conn = None
        peer.backoff = min(
            _BACKOFF_MAX, peer.backoff * 2 or _BACKOFF_BASE
        )
        peer.next_dial_at = time.monotonic() + peer.backoff
        self._pull_deadline(peer.next_dial_at)
        self.log.warning("cannot connect to %s:%s", *peer.key)

    def _finish_connect(self, conn: _AioConnection) -> None:
        peer = conn.peer
        error = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if error:
            self._close_conn(conn)
            if peer is not None:
                self._dial_failed(peer)
            return
        conn.established_at = time.monotonic()
        # peer.backoff is deliberately NOT reset here: a peer that accepts
        # and immediately resets would otherwise be redialed at _BACKOFF_BASE
        # forever.  _connection_broke resets the ladder only once the
        # connection has proven stable.
        with conn.write_lock:
            if peer is not None:
                peer.next_dial_at = 0.0
                destination = Address(peer.key[0], peer.key[1])
                hello = self.codec.frame(
                    _Hello(source=self.address, destination=destination)
                )
                conn.inflight.insert(0, memoryview(hello))
            # Only now may a sender's thread write here: the hello leads.
            conn.connecting = False
        self._register(conn, selectors.EVENT_READ | selectors.EVENT_WRITE)
        self._flush(conn)

    # ---------------------------------------------------------------- writing

    def _flush(self, conn: _AioConnection) -> None:
        """Loop thread: write what is queued, then set ``EVENT_WRITE`` interest."""
        if not conn.write_lock.acquire(blocking=False):
            # A sender's thread is writing.  It looks at the outbox again
            # after it lets go, and wakes the loop if it stops short.
            return
        try:
            drained = self._drain(conn)
        except OSError:
            drained = None
        finally:
            conn.write_lock.release()
        if drained is None:
            self._connection_broke(conn)
        else:
            self._want_write(conn, not drained)

    def _drain(self, conn: _AioConnection) -> bool:
        """Write the peer's outbox to the socket; the caller holds ``write_lock``.

        The one writer of a connection, whichever thread it runs on:
        finishes the batch in flight, then folds what has queued into the
        next one.  True when nothing is left, False when frames remain
        (the socket refused bytes, or the connection is closed) and the
        loop has to carry on; ``OSError`` from the socket propagates.
        """
        if conn.closed:
            return False
        peer = conn.peer
        sock = conn.sock
        while True:
            if not conn.inflight:
                # Unlocked peek (only the holder of write_lock empties an
                # outbox): a sender that appends right after it does not
                # get the lock we hold and wakes the loop instead.
                if peer is None or not peer.outbox:
                    return True
                parts: list[tuple[int, bytes]] = []
                # A batch body must stay within codec.max_frame or the
                # receiver (and batch_buffers itself) refuses it, so the
                # batch is bounded by accumulated wire bytes as well as
                # message count.  The first part is always taken: a batch
                # of one degrades to a plain frame, whose payload
                # encode_payload already size-checked.
                budget = self.codec.max_frame - BATCH_OVERHEAD
                body = 0
                with self._lock:
                    outbox = peer.outbox
                    while outbox and len(parts) < _MAX_BATCH:
                        size = FRAME_OVERHEAD + len(outbox[0][1])
                        if parts and body + size > budget:
                            break
                        parts.append(outbox.popleft())
                        body += size
                    self.batches += 1
                    self.batched_messages += len(parts)
                try:
                    _total, buffers = self.codec.batch_buffers(parts)
                except Exception as exc:
                    # The frames are off the outbox and will never reach
                    # the socket: count them, whatever was raised.
                    with self._lock:
                        self.dropped_frames += len(parts)
                    if not isinstance(exc, SerializationError):
                        raise  # contained by the caller: costs the connection
                    # Defense in depth: a batch the codec refuses sheds its
                    # frames and nothing else.
                    self.log.exception(
                        "dropping unsendable batch of %d frames", len(parts)
                    )
                    continue
                conn.inflight = [memoryview(b) for b in buffers]
            try:
                sent = sock.sendmsg(conn.inflight[:_IOV_CAP])
            except (BlockingIOError, InterruptedError):
                return False
            conn.last_active = time.monotonic()
            self._consume_inflight(conn, sent)
            with self._lock:
                self.bytes_sent += sent

    @staticmethod
    def _consume_inflight(conn: _AioConnection, sent: int) -> None:
        inflight = conn.inflight
        while sent and inflight:
            first = inflight[0]
            if sent >= len(first):
                sent -= len(first)
                del inflight[0]
            else:
                inflight[0] = first[sent:]
                sent = 0

    def _want_write(self, conn: _AioConnection, want: bool) -> None:
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
        if conn.connecting:
            events |= selectors.EVENT_WRITE
        self._register(conn, events)

    def _register(self, conn: _AioConnection, events: int) -> None:
        if conn.closed or events == conn.events:
            return
        if conn.events == 0:
            self._selector.register(conn.sock, events, conn)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    # ---------------------------------------------------------------- reading

    def _on_ready(self, conn: _AioConnection, mask: int, now: float) -> None:
        if conn.closed:
            return
        if conn.connecting:
            self._finish_connect(conn)
            return
        if mask & selectors.EVENT_READ:
            self._read(conn, now)
        # Reading makes nothing writable: flush only when the socket said
        # so, or a batch tail is waiting (a sender's thread stopped short).
        if not conn.closed and (mask & selectors.EVENT_WRITE or conn.inflight):
            self._flush(conn)

    def _read(self, conn: _AioConnection, now: float) -> None:
        sock = conn.sock
        view = self._recv_view
        while not conn.closed:
            try:
                count = sock.recv_into(self._recv_buf)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._connection_broke(conn)
                return
            if count == 0:
                self._connection_broke(conn)
                return
            self.bytes_received += count
            conn.last_active = now
            # Like the blocking reader, deliver what decoded before a bad
            # frame, then close.  What they make ready runs here first.
            parser = conn.parser
            messages = parser.feed(view[:count])
            self.loop_slots += deliver_and_run(
                lambda: self._deliver_all(messages, conn), _LOOP_BUDGET
            )
            if parser.failed is not None:
                self.log.error(
                    "closing connection on undecodable frame", exc_info=parser.failed
                )
                self._connection_broke(conn)
                return
            if count < _RECV_BUFFER:
                return

    def _deliver_all(self, messages, conn: _AioConnection) -> None:
        for message in messages:
            self._deliver(message, conn)

    def _deliver(self, message: Message, conn: _AioConnection) -> None:
        if isinstance(message, _Hello):
            key = (message.source.host, message.source.port)
            with self._lock:
                peer = self._peers.get(key)
                if peer is None:
                    peer = self._peers[key] = _Peer(key)
                if conn.peer is None and (peer.conn is None or peer.conn.closed):
                    conn.peer = peer
                    peer.conn = conn
                    self._dirty.append(peer)  # this iteration's _process_dirty flushes it
            return
        # Keep PR-7's Address sharing on the wire-in path: collapse the
        # endpoints of every delivered message to their canonical
        # interned instances (frozen slots dataclass, hence object.__setattr__).
        source = message.source
        if source is not None:
            interned = source.intern()
            if interned is not source:
                object.__setattr__(message, "source", interned)
        destination = message.destination
        if destination is not None:
            interned = destination.intern()
            if interned is not destination:
                object.__setattr__(message, "destination", interned)
        self.received += 1
        try:
            self.trigger(message, self.port)
        except Exception:  # noqa: BLE001 - delivery must not kill the loop
            self.log.exception("delivery failed for %r", message)

    def _on_accept(self) -> None:
        while True:
            try:
                sock, _addr = self._server.accept()
            except (BlockingIOError, InterruptedError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _AioConnection(sock, FrameStreamParser(self.codec))
            self._conns.add(conn)
            self._register(conn, selectors.EVENT_READ)

    # ----------------------------------------------------------------- timers

    def _run_timers(self, now: float) -> None:
        """Act on what is due and store the next deadline.

        The only place that walks the peer table; it runs when the stored
        deadline passes, not on every wake-up.
        """
        if now >= self._next_sweep:
            self._sweep(now)
            self._next_sweep = self._sweep_after(now)
        self._next_deadline = self._next_sweep  # pulled earlier by what follows
        with self._lock:
            peers = list(self._peers.values())
        for peer in peers:
            conn = peer.conn
            if conn is not None and conn.connecting:
                if now > conn.connect_deadline:
                    self._close_conn(conn)
                    self._dial_failed(peer)
                else:
                    self._pull_deadline(conn.connect_deadline)
            elif conn is None or conn.closed:
                self._maybe_dial(peer)  # dials, or pulls the deadline to its backoff

    def _sweep(self, now: float) -> None:
        """Reap idle connections, evict quiet peers (every ``idle_timeout / 4``)."""
        for conn in list(self._conns):
            peer = conn.peer
            if (
                not conn.closed
                and not conn.connecting
                and not conn.inflight
                and (peer is None or not peer.outbox)
                and now - conn.last_active > self.idle_timeout
            ):
                self._close_conn(conn)
                self.reaped += 1
        # Evict peer-table entries that no longer hold anything: no
        # connection, nothing queued, past their dial backoff.  Keeps the
        # pool sized by live correspondents instead of message history.
        with self._lock:
            idle_keys = [
                key
                for key, peer in self._peers.items()
                if peer.conn is None and not peer.outbox and now >= peer.next_dial_at
            ]
            for key in idle_keys:
                del self._peers[key]

    # ----------------------------------------------------------------- errors

    def _connection_broke(self, conn: _AioConnection) -> None:
        if conn.closed:
            return  # already shed (a posted break can arrive after the loop's own)
        peer = conn.peer
        now = time.monotonic()
        stable = now - conn.established_at >= _BACKOFF_MAX
        self._close_conn(conn)
        if peer is not None and peer.outbox and not self._closing:
            # Queued-but-unflushed frames survive the break; redial after
            # backoff.  Frames already folded into a partial batch are
            # gone, exactly like bytes the oracle handed to the kernel.
            self.reconnects += 1
            if stable:
                # The connection outlived the backoff ceiling, so the peer
                # was genuinely healthy: restart the ladder from the base.
                peer.backoff = 0.0
            peer.backoff = min(
                _BACKOFF_MAX, peer.backoff * 2 or _BACKOFF_BASE
            )
            peer.next_dial_at = now + peer.backoff
            self._maybe_dial(peer)

    def _close_conn(self, conn: _AioConnection) -> None:
        # Write ownership: wait out a sender's thread that is inside
        # sendmsg, so the descriptor is never closed under it.
        with conn.write_lock:
            if conn.closed:
                return
            conn.closed = True
            conn.inflight = []
            if conn.events:
                try:
                    self._selector.unregister(conn.sock)
                except (KeyError, ValueError, OSError):
                    pass
                conn.events = 0
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.discard(conn)
        peer = conn.peer
        if peer is not None and peer.conn is conn:
            peer.conn = None
            if peer.outbox:
                # Frames are waiting and no send may follow to redial for
                # them: have the timer pass look at this peer.
                self._pull_deadline(peer.next_dial_at)

    def _drop_connections(self) -> None:
        """Close every live connection (keeps queues; tests and chaos)."""
        done = threading.Event()

        def close_all() -> None:
            with self._lock:
                peers = list(self._peers.values())
            for peer in peers:
                if peer.conn is not None:
                    self._close_conn(peer.conn)
            done.set()

        if threading.current_thread() is self._loop:
            close_all()  # from a handler the loop runs: it cannot wait for itself
        else:
            self._post(close_all)
            done.wait(timeout=5.0)

    # ---------------------------------------------------------------- cleanup

    def _teardown_sockets(self) -> None:
        for conn in list(self._conns):
            self._close_conn(conn)
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._server, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass

    def tear_down(self) -> None:
        with self._lock:
            self._closing = True
        self._wake()
        # From a handler the loop runs, the loop closes the sockets on return.
        if threading.current_thread() is not self._loop:
            self._loop.join(timeout=2.0)  # daemon thread; it closes the sockets
