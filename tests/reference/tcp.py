"""TcpNetwork: the blocking real-sockets Network, kept as an oracle.

The stand-in for the paper's Grizzly/Netty/MINA components (section 3):
automatic connection management, length-prefixed frames, pluggable codec,
zlib compression.  One acceptor thread, plus a reader and a writer thread
per live connection; delivered messages are triggered on the provided
Network port from reader threads (component enqueueing is thread-safe).

Connections are reused in both directions: a dialing node sends a hello
frame carrying its listen address, so the accepting side can route replies
back over the same socket.  The hello is
:class:`repro.network.aio.AioTcpNetwork`'s own, so the two backends speak
one wire; the differential and interop suites rely on that.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Optional

from repro.core.component import ComponentDefinition
from repro.core.handler import handles
from repro.network.address import Address
from repro.network.aio import _Hello
from repro.network.message import Message, Network
from repro.network.serialization import FrameCodec, SerializationError
from repro.protocols.monitor.port import (
    Status,
    StatusRequest,
    StatusResponse,
    StatusSnapshotEnd,
)


# Live sockets cannot cross a process boundary: a migrated TcpNetwork
# re-binds its listener in __init__ and peers redial on the next send,
# so the connection table is deliberately not part of section-2.6 state
# transfer and the component stays pinned to its birth shard.
class TcpNetwork(ComponentDefinition):  # repro: noqa[P006]
    """Provides Network over TCP sockets."""

    def __init__(
        self,
        address: Address,
        codec: Optional[FrameCodec] = None,
        connect_timeout: float = 5.0,
        outbound_limit: int = 8192,
        overflow: str = "drop_oldest",
        block_timeout: float = 5.0,
    ) -> None:
        super().__init__()
        if overflow not in ("drop_oldest", "block"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        self.address = address
        self.port = self.provides(Network)
        self.status = self.provides(Status)
        self.codec = codec if codec is not None else FrameCodec()
        self.connect_timeout = connect_timeout
        self.outbound_limit = outbound_limit
        self.overflow = overflow
        self.block_timeout = block_timeout
        self.sent = 0
        self.received = 0
        self.dropped_frames = 0
        self._connections: dict[tuple[str, int], _Connection] = {}
        # A transport endpoint is process-local by definition: migrating a
        # TcpNetwork means binding a fresh listener at the destination and
        # letting peers reconnect (in-flight frames fail over via the
        # protocols' own timeouts), so section-2.6 state transfer is
        # deliberately not implemented here.
        self._lock = threading.Lock()  # repro: noqa[D004]
        self._closing = False

        self._server = socket.create_server(  # repro: noqa[D004]
            (address.host, address.port), reuse_port=False
        )
        # The OS may have picked the port (port=0): record the real one.
        self.address = Address(address.host, self._server.getsockname()[1], address.node_id)
        self._acceptor = threading.Thread(  # repro: noqa[D004]
            target=self._accept_loop, name=f"tcp-accept-{self.address}", daemon=True
        )
        self._acceptor.start()
        self.subscribe(self.on_send, self.port)
        self.subscribe(self.on_status, self.status)

    # --------------------------------------------------------------- sending

    @handles(Message)
    def on_send(self, message: Message) -> None:
        if message.destination == self.address or (
            message.destination.host == self.address.host
            and message.destination.port == self.address.port
        ):
            # Self-send short-circuits the sockets.
            self.trigger(message, self.port)
            return
        connection = self._connection_to(message.destination)
        if connection is not None:
            connection.send(message)
            self.sent += 1

    @handles(StatusRequest)
    def on_status(self, _request: StatusRequest) -> None:
        self.trigger(StatusResponse("tcp-network", self.status_snapshot()), self.status)
        self.trigger(StatusSnapshotEnd(), self.status)

    def status_snapshot(self) -> dict:
        with self._lock:
            connections = len(self._connections)
            queued = sum(c._outbox.qsize() for c in self._connections.values())
        return {
            "address": str(self.address),
            "sent": self.sent,
            "received": self.received,
            "dropped_frames": self.dropped_frames,
            "queued_frames": queued,
            "connections": connections,
        }

    def _connection_to(self, destination: Address) -> Optional["_Connection"]:
        key = (destination.host, destination.port)
        with self._lock:
            connection = self._connections.get(key)
            if connection is not None and not connection.closed:
                return connection
        try:
            sock = socket.create_connection(key, timeout=self.connect_timeout)
            sock.settimeout(None)
        except OSError:
            self.log.warning("cannot connect to %s", destination)
            return None
        connection = _Connection(self, sock, key)
        with self._lock:
            self._connections[key] = connection
        connection.start()
        connection.send(_Hello(source=self.address, destination=destination))
        return connection

    # -------------------------------------------------------------- receiving

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _peer = self._server.accept()
            except OSError:
                return
            connection = _Connection(self, sock, key=None)
            connection.start()

    def _deliver(self, message: Message, connection: "_Connection") -> None:
        if isinstance(message, _Hello):
            key = (message.source.host, message.source.port)
            with self._lock:
                connection.key = key
                existing = self._connections.get(key)
                if existing is None or existing.closed:
                    self._connections[key] = connection
            return
        self.received += 1
        self.trigger(message, self.port)

    def _connection_closed(self, connection: "_Connection") -> None:
        if connection.key is None:
            return
        with self._lock:
            if self._connections.get(connection.key) is connection:
                del self._connections[connection.key]

    # ---------------------------------------------------------------- cleanup

    def tear_down(self) -> None:
        self._closing = True
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()


class _Connection:
    """One TCP connection: a writer queue/thread and a reader thread.

    The outbox is bounded by the owner's ``outbound_limit`` high-water
    mark: a stalled peer cannot grow the queue without limit (the
    M002-shaped failure mode).  On overflow the ``drop_oldest`` policy
    sheds the head of the queue, ``block`` applies backpressure to the
    sending handler for up to ``block_timeout`` before shedding the new
    frame; either way the shed frames land in ``dropped_frames``.
    """

    def __init__(
        self,
        owner: TcpNetwork,
        sock: socket.socket,
        key: Optional[tuple[str, int]],
    ) -> None:
        self.owner = owner
        self.sock = sock
        self.key = key
        self.closed = False
        self._outbox: "queue.Queue[Optional[bytes]]" = queue.Queue(
            maxsize=owner.outbound_limit
        )
        self._writer = threading.Thread(target=self._write_loop, daemon=True)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)

    def start(self) -> None:
        self._writer.start()
        self._reader.start()

    def send(self, message: Message) -> None:
        if self.closed:
            return
        try:
            frame = self.owner.codec.frame(message)
        except SerializationError:
            self.owner.log.exception("dropping unserializable message")
            return
        if self.owner.overflow == "block":
            try:
                self._outbox.put(frame, timeout=self.owner.block_timeout)
                return
            except queue.Full:
                self._count_drop()
                return
        while not self.closed:
            try:
                self._outbox.put_nowait(frame)
                return
            except queue.Full:
                try:
                    dropped = self._outbox.get_nowait()
                except queue.Empty:
                    continue
                if dropped is None:  # raced close(): restore the sentinel
                    self._outbox.put_nowait(None)
                    self._count_drop()  # the new frame is shed too
                    return
                self._count_drop()

    def _count_drop(self) -> None:
        with self.owner._lock:
            self.owner.dropped_frames += 1

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        while True:  # a full outbox must still admit the shutdown sentinel
            try:
                self._outbox.put_nowait(None)
                break
            except queue.Full:
                try:
                    self._outbox.get_nowait()
                except queue.Empty:
                    pass
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self.owner._connection_closed(self)

    def _write_loop(self) -> None:
        while True:
            frame = self._outbox.get()
            if frame is None:
                return
            try:
                self.sock.sendall(frame)
            except OSError:
                self.close()
                return

    def _read_loop(self) -> None:
        stream = self.sock.makefile("rb")
        try:
            while True:
                try:
                    # Batch-tolerant: a coalescing AioTcpNetwork peer may
                    # fold many messages into one wire frame.
                    messages = self.owner.codec.read_frames(stream)
                except (SerializationError, OSError):
                    break
                if messages is None:
                    break
                for message in messages:
                    self.owner._deliver(message, self)
        finally:
            self.close()
