"""Message serialization and framing (paper section 3).

The paper's network components implement "message serialization and Zlib
compression" with pluggable codecs (Kryo in CATS).  We provide the same
structure: a :class:`Codec` turns a Message into bytes and back; a
:class:`FrameCodec` wraps a codec with a length-prefixed wire frame and
optional zlib compression above a size threshold.

Wire format (big-endian)::

    +--------+--------+----------------+
    | u32    | u8     | payload        |
    | length | flags  | length bytes   |
    +--------+--------+----------------+

``flags & 0x01`` marks a zlib-compressed payload.

``flags & 0x02`` marks a *batch frame*: the payload is a u32 message
count followed by that many standard (non-batch) frames back to back.
Batch frames are what the non-blocking backend's write coalescing emits
— many queued messages fold into one frame flushed by one ``sendmsg``
— and :class:`FrameStreamParser` reassembles them incrementally from
arbitrarily fragmented byte streams without copying whole payloads::

    +--------+--------+--------+------------------  -  -
    | u32    | u8     | u32    | count x standard frames
    | length | 0x02   | count  | (u32 len | u8 flags | payload)
    +--------+--------+--------+------------------  -  -
"""

from __future__ import annotations

import abc
import io
import pickle
import struct
import zlib
from typing import Iterable, Optional, Union

from ..core.errors import KompicsError
from .message import Message

_HEADER = struct.Struct(">IB")
_U32 = struct.Struct(">I")
FLAG_COMPRESSED = 0x01
FLAG_BATCH = 0x02
#: Framing bytes per message: the length + flags header.
FRAME_OVERHEAD = _HEADER.size
#: Extra framing bytes per batch body: the message-count prefix.
BATCH_OVERHEAD = _U32.size

ReadableBuffer = Union[bytes, bytearray, memoryview]


class SerializationError(KompicsError):
    """A message could not be encoded or decoded."""


class Codec(abc.ABC):
    """Pluggable message codec.

    ``decode`` must accept any readable buffer (bytes, bytearray,
    memoryview) so the zero-copy receive path can hand it a slice of the
    reusable socket buffer; implementations must copy out anything they
    retain, because that buffer is overwritten by the next ``recv_into``.
    """

    @abc.abstractmethod
    def encode(self, message: Message) -> bytes: ...

    @abc.abstractmethod
    def decode(self, payload: ReadableBuffer) -> Message: ...


class PickleCodec(Codec):
    """Generic Python pickling: the compact codec's fallback for
    unregistered messages, and a codec of its own on request."""

    def encode(self, message: Message) -> bytes:
        try:
            return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001
            raise SerializationError(f"cannot pickle {message!r}: {exc}") from exc

    def decode(self, payload: ReadableBuffer) -> Message:
        try:
            message = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001
            raise SerializationError(f"cannot unpickle frame: {exc}") from exc
        if not isinstance(message, Message):
            raise SerializationError(f"decoded object is not a Message: {message!r}")
        return message


def encode_event(event) -> bytes:
    """Pickle any :class:`~repro.core.event.Event` for a shard boundary.

    The message codecs above are transport-facing and insist on
    :class:`Message`; shard scale-out (and the D001 round-trip oracle)
    also moves plain events, so these helpers apply the same pickle
    discipline to the full event hierarchy.
    """
    from ..core.event import Event

    if not isinstance(event, Event):
        raise SerializationError(f"not an Event: {event!r}")
    try:
        return pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001
        raise SerializationError(f"cannot pickle {event!r}: {exc}") from exc


def decode_event(payload: bytes):
    """Inverse of :func:`encode_event`; checks the result is an Event."""
    from ..core.event import Event

    try:
        event = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001
        raise SerializationError(f"cannot unpickle event: {exc}") from exc
    if not isinstance(event, Event):
        raise SerializationError(f"decoded object is not an Event: {event!r}")
    return event


class AdaptiveCompressor:
    """Learns when zlib is worth attempting on a connection's traffic.

    Compressing a payload that does not shrink wastes CPU twice (deflate
    on send, nothing saved on the wire).  This tracker skips the attempt
    entirely while recent history says the stream is incompressible:
    after ``patience`` consecutive attempts whose output missed the
    ``min_gain`` ratio, the next ``backoff`` eligible payloads ship raw;
    one winning attempt resets the streak.  State is per-connection and a
    few ints — no buffering, no allocation on the fast path.
    """

    __slots__ = ("min_gain", "patience", "backoff", "_losses", "_skips_left")

    def __init__(
        self, min_gain: float = 0.9, patience: int = 4, backoff: int = 64
    ) -> None:
        self.min_gain = min_gain
        self.patience = patience
        self.backoff = backoff
        self._losses = 0
        self._skips_left = 0

    def compress(self, payload: bytes) -> Optional[bytes]:
        """Compressed payload if the attempt was made and won, else None."""
        if self._skips_left > 0:
            self._skips_left -= 1
            return None
        compressed = zlib.compress(payload)
        if len(compressed) < len(payload) * self.min_gain:
            self._losses = 0
            return compressed
        self._losses += 1
        if self._losses >= self.patience:
            self._losses = 0
            self._skips_left = self.backoff
        return None


class FrameCodec:
    """Length-prefixed framing with optional zlib compression.

    The payload codec defaults to
    :class:`~repro.network.compact.CompactCodec`.  ``adaptive=True`` (the
    non-blocking backend's default) backs off via
    :class:`AdaptiveCompressor` when recent zlib attempts did not pay for
    themselves.  That is a send-side heuristic only: the wire format and
    the decode path are identical either way.
    """

    def __init__(
        self,
        codec: Optional[Codec] = None,
        compress_threshold: Optional[int] = 512,
        max_frame: int = 64 * 1024 * 1024,
        adaptive: bool = False,
    ) -> None:
        if codec is None:
            from .compact import CompactCodec  # compact builds on this module

            codec = CompactCodec()
        self.codec = codec
        self.compress_threshold = compress_threshold
        self.max_frame = max_frame
        self.adaptive = adaptive
        self._compressor = AdaptiveCompressor() if adaptive else None

    def encode_payload(self, message: Message) -> tuple[int, bytes]:
        """Encode one message to its on-wire ``(flags, payload)`` pair."""
        payload = self.codec.encode(message)
        flags = 0
        if (
            self.compress_threshold is not None
            and len(payload) >= self.compress_threshold
        ):
            if self._compressor is not None:
                compressed = self._compressor.compress(payload)
                if compressed is not None:
                    payload = compressed
                    flags |= FLAG_COMPRESSED
            else:
                compressed = zlib.compress(payload)
                if len(compressed) < len(payload):
                    payload = compressed
                    flags |= FLAG_COMPRESSED
        if len(payload) > self.max_frame:
            raise SerializationError(
                f"frame of {len(payload)} bytes exceeds max_frame={self.max_frame}"
            )
        return flags, payload

    def frame(self, message: Message) -> bytes:
        flags, payload = self.encode_payload(message)
        return _HEADER.pack(len(payload), flags) + payload

    def frame_batch(self, messages: Iterable[Message]) -> bytes:
        """One batch frame folding ``messages`` (in order) into one unit."""
        total, buffers = self.batch_buffers(
            [self.encode_payload(message) for message in messages]
        )
        return b"".join(buffers)

    def batch_buffers(
        self, parts: "list[tuple[int, bytes]]"
    ) -> tuple[int, list[bytes]]:
        """Scatter/gather segments for one batch frame over encoded parts.

        Returns ``(wire_length, buffers)`` where buffers is ready for
        ``socket.sendmsg`` — headers are freshly packed little blobs, the
        payloads ride as-is with no concatenation (zero-copy on the send
        side).  A single part degrades to a plain frame so a batch of one
        costs nothing extra on the wire.
        """
        if len(parts) == 1:
            flags, payload = parts[0]
            header = _HEADER.pack(len(payload), flags)
            return _HEADER.size + len(payload), [header, payload]
        inner = _HEADER.size * len(parts) + sum(len(p) for _, p in parts)
        body_len = _U32.size + inner
        if body_len > self.max_frame:
            raise SerializationError(
                f"batch frame of {body_len} bytes exceeds max_frame={self.max_frame}"
            )
        buffers: list[bytes] = [
            _HEADER.pack(body_len, FLAG_BATCH) + _U32.pack(len(parts))
        ]
        for flags, payload in parts:
            buffers.append(_HEADER.pack(len(payload), flags))
            buffers.append(payload)
        return _HEADER.size + body_len, buffers

    def decode_payload(self, flags: int, payload: ReadableBuffer) -> Message:
        """Decode one standard frame's payload (decompressing if marked)."""
        if flags & FLAG_COMPRESSED:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as exc:
                raise SerializationError(f"corrupt compressed payload: {exc}") from exc
        return self.codec.decode(payload)

    def unframe(self, frame: ReadableBuffer) -> Message:
        if len(frame) < _HEADER.size:
            raise SerializationError("short frame")
        length, flags = _HEADER.unpack_from(frame)
        payload = memoryview(frame)[_HEADER.size : _HEADER.size + length]
        if len(payload) != length:
            raise SerializationError("truncated frame")
        return self.decode_payload(flags, payload)

    # Blocking-stream helpers (the reference transport's read loop) --------

    def read_frame(self, stream: io.RawIOBase) -> Optional[Message]:
        """Read one frame from a blocking stream; None on clean EOF."""
        messages = self.read_frames(stream)
        if messages is None:
            return None
        if len(messages) != 1:
            raise SerializationError(
                f"expected a single frame, got a batch of {len(messages)}"
            )
        return messages[0]

    def read_frames(self, stream: io.RawIOBase) -> Optional[list[Message]]:
        """Read one wire frame — plain or batch — as a list of messages.

        None on clean EOF.  This is what a blocking read loop uses (the
        reference transport in ``tests/reference/tcp.py``), so a blocking
        peer interoperates with a coalescing non-blocking sender.
        """
        header = _read_exactly(stream, _HEADER.size)
        if header is None:
            return None
        length, flags = _HEADER.unpack(header)
        if length > self.max_frame:
            raise SerializationError(f"incoming frame too large: {length}")
        payload = _read_exactly(stream, length)
        if payload is None:
            raise SerializationError("connection closed mid-frame")
        if flags & FLAG_BATCH:
            return self._decode_batch(memoryview(payload))
        return [self.decode_payload(flags, payload)]

    def _decode_batch(self, body: memoryview) -> list[Message]:
        if len(body) < _U32.size:
            raise SerializationError("truncated batch frame")
        (count,) = _U32.unpack_from(body)
        offset = _U32.size
        messages: list[Message] = []
        for _ in range(count):
            if len(body) - offset < _HEADER.size:
                raise SerializationError("truncated batch frame")
            length, flags = _HEADER.unpack_from(body, offset)
            if flags & FLAG_BATCH:
                raise SerializationError("nested batch frame")
            offset += _HEADER.size
            if len(body) - offset < length:
                raise SerializationError("truncated batch frame")
            messages.append(self.decode_payload(flags, body[offset : offset + length]))
            offset += length
        if offset != len(body):
            raise SerializationError("trailing bytes in batch frame")
        return messages


class FrameStreamParser:
    """Incremental frame reassembly for a non-blocking byte stream.

    Feed it whatever the socket produced — any fragmentation is fine:
    half a header, ten frames and a tail, a batch frame split down the
    middle of an inner payload — and it returns every completely
    received message, in order.  Decoding works on ``memoryview`` slices
    of the fed buffer (no per-frame copy); only an incomplete tail is
    retained, copied once into the carry buffer.  Codecs must therefore
    copy out anything they keep, which both shipped codecs do.
    """

    __slots__ = ("codec", "_carry", "frames", "batches", "messages", "failed")

    def __init__(self, codec: FrameCodec) -> None:
        self.codec = codec
        self._carry = bytearray()
        self.frames = 0  # wire frames completed (a batch counts once)
        self.batches = 0  # how many of those were batch frames
        self.messages = 0  # messages decoded
        self.failed: Optional[SerializationError] = None  # what ended the stream

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._carry)

    def feed(self, data: ReadableBuffer) -> list[Message]:
        """Consume ``data``, return every message it completed.

        A malformed frame ends the stream: the messages completed before
        it are still returned (the blocking reader delivers those too
        before it fails), ``failed`` holds the error, and feeding the
        parser again raises it.
        """
        if self.failed is not None:
            raise self.failed
        if self._carry:
            self._carry += data
            view = memoryview(self._carry)
        else:
            view = memoryview(data)
        out: list[Message] = []
        offset = 0
        size = len(view)
        header_size = _HEADER.size
        try:
            while size - offset >= header_size:
                length, flags = _HEADER.unpack_from(view, offset)
                if length > self.codec.max_frame:
                    raise SerializationError(f"incoming frame too large: {length}")
                end = offset + header_size + length
                if end > size:
                    break
                body = view[offset + header_size : end]
                if flags & FLAG_BATCH:
                    out.extend(self.codec._decode_batch(body))
                    self.batches += 1
                else:
                    out.append(self.codec.decode_payload(flags, body))
                self.frames += 1
                offset = end
        except SerializationError as exc:
            self.failed = exc
            offset = size  # nothing after a bad frame can be trusted
        finally:
            # Retain only the unconsumed tail.  Slicing allocates a fresh
            # bytearray rather than resizing in place, so a decoder that
            # raised while still holding a view of the old buffer cannot
            # trip "bytearray with exported buffers".
            tail = bytes(view[offset:size]) if offset < size else b""
            view.release()
            self._carry = bytearray(tail)
        self.messages += len(out)
        return out


def _read_exactly(stream, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on EOF (clean or mid-read)."""
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
