"""Property tests for incremental frame parsing (batch-frame layout).

The invariant that keeps the non-blocking backend honest: however a
multi-frame byte stream is fragmented — at every single boundary, or by
seeded random chunking down to one-byte pieces — FrameStreamParser must
reassemble exactly the messages a whole-buffer decode yields, in order.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

import pytest

from repro.network import (
    CompactCodec,
    FrameCodec,
    FrameStreamParser,
    Message,
    PickleCodec,
    SerializationError,
    local_address,
)
from repro.network.serialization import _HEADER, FLAG_BATCH, FLAG_COMPRESSED


@dataclass(frozen=True)
class Blob(Message):
    n: int = 0
    payload: bytes = b""


A = local_address(1, node_id=1)
B = local_address(2, node_id=2)


def _messages(seed: int, count: int) -> list[Blob]:
    rng = random.Random(seed)
    out = []
    for n in range(count):
        kind = rng.randrange(3)
        if kind == 0:
            payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 24)))
        elif kind == 1:
            payload = b"compressible " * rng.randrange(40, 200)  # zlib wins
        else:
            payload = rng.randbytes(rng.randrange(600, 2000))  # zlib loses
        out.append(Blob(A, B, n=n, payload=payload))
    return out


def _stream_for(codec: FrameCodec, messages: list[Blob], seed: int) -> bytes:
    """Mix plain frames and batch frames of varying width over ``messages``."""
    rng = random.Random(seed)
    chunks = []
    index = 0
    while index < len(messages):
        width = rng.choice([1, 1, 2, 3, 5])
        group = messages[index : index + width]
        index += width
        if len(group) == 1 and rng.random() < 0.5:
            chunks.append(codec.frame(group[0]))
        else:
            chunks.append(codec.frame_batch(group))
    return b"".join(chunks)


def _codec(kind: str) -> FrameCodec:
    inner = PickleCodec() if kind == "pickle" else CompactCodec()
    return FrameCodec(inner, compress_threshold=256)


@pytest.mark.parametrize("kind", ["pickle", "compact"])
def test_whole_buffer_matches_reference(kind):
    codec = _codec(kind)
    messages = _messages(seed=7, count=12)
    stream = _stream_for(codec, messages, seed=7)
    parser = FrameStreamParser(codec)
    assert parser.feed(stream) == messages
    assert parser.pending == 0
    assert parser.messages == len(messages)


@pytest.mark.parametrize("kind", ["pickle", "compact"])
def test_split_at_every_boundary(kind):
    """Two-chunk delivery split at every byte position reassembles identically."""
    codec = _codec(kind)
    messages = _messages(seed=11, count=5)
    stream = _stream_for(codec, messages, seed=11)
    reference = FrameStreamParser(codec).feed(stream)
    assert reference == messages
    for cut in range(1, len(stream)):
        parser = FrameStreamParser(codec)
        got = parser.feed(stream[:cut]) + parser.feed(stream[cut:])
        assert got == reference, f"mismatch splitting at byte {cut}"
        assert parser.pending == 0


@pytest.mark.parametrize("kind", ["pickle", "compact"])
@pytest.mark.parametrize("seed", range(20))
def test_randomized_fragmentation(kind, seed):
    """Seeded random chunkings (including 1-byte dribbles) reassemble identically."""
    codec = _codec(kind)
    messages = _messages(seed=seed, count=16)
    stream = _stream_for(codec, messages, seed=seed)
    reference = FrameStreamParser(codec).feed(stream)
    assert reference == messages

    rng = random.Random(seed * 31 + 1)
    parser = FrameStreamParser(codec)
    got: list[Message] = []
    offset = 0
    while offset < len(stream):
        step = rng.choice([1, 2, 3, 7, 64, 256, 1024, 8192])
        got.extend(parser.feed(stream[offset : offset + step]))
        offset += step
    assert got == reference
    assert parser.pending == 0


def test_feed_accepts_memoryview_slices():
    codec = _codec("compact")
    messages = _messages(seed=3, count=8)
    stream = memoryview(_stream_for(codec, messages, seed=3))
    parser = FrameStreamParser(codec)
    middle = len(stream) // 2
    got = parser.feed(stream[:middle]) + parser.feed(stream[middle:])
    assert got == messages


def test_parser_counts_batches_and_frames():
    codec = _codec("pickle")
    messages = _messages(seed=5, count=6)
    stream = codec.frame_batch(messages[:4]) + b"".join(
        codec.frame(m) for m in messages[4:]
    )
    parser = FrameStreamParser(codec)
    assert parser.feed(stream) == messages
    assert parser.batches == 1
    assert parser.frames == 3  # one batch + two plain wire frames
    assert parser.messages == 6


def test_oversized_frame_rejected():
    codec = FrameCodec(PickleCodec(), max_frame=64)
    parser = FrameStreamParser(codec)
    huge = _HEADER.pack(1 << 20, 0)
    assert parser.feed(huge) == []
    assert isinstance(parser.failed, SerializationError)
    with pytest.raises(SerializationError):  # the stream is over
        parser.feed(b"")


def test_compressed_payload_inflating_past_max_frame_rejected():
    """A few KiB of deflate must not inflate to any size on the reader."""
    codec = FrameCodec(CompactCodec(), max_frame=1 << 20)
    # A well-formed message, 10 MiB once inflated: only the bound stops it.
    inner = codec.codec.encode(Blob(A, B, payload=bytes(10 << 20)))
    bomb = zlib.compress(inner, 9)
    assert len(bomb) < 12 * 1024
    with pytest.raises(SerializationError, match="max_frame"):
        codec.decode_payload(FLAG_COMPRESSED, bomb)
    parser = FrameStreamParser(codec)
    good = Blob(A, B, n=1, payload=b"compressible " * 100)
    assert parser.feed(codec.frame(good) + _HEADER.pack(len(bomb), FLAG_COMPRESSED) + bomb) == [good]
    assert isinstance(parser.failed, SerializationError)
    # A truncated deflate stream is refused too, not decoded in part.
    with pytest.raises(SerializationError):
        codec.decode_payload(FLAG_COMPRESSED, zlib.compress(codec.codec.encode(good))[:-8])


def test_truncated_batch_rejected():
    codec = _codec("pickle")
    batch = bytearray(codec.frame_batch(_messages(seed=1, count=3)))
    # Corrupt the inner count so the body runs out mid-parse.
    batch[_HEADER.size : _HEADER.size + 4] = (99).to_bytes(4, "big")
    parser = FrameStreamParser(codec)
    assert parser.feed(bytes(batch)) == []
    assert isinstance(parser.failed, SerializationError)


def test_nested_batch_rejected():
    codec = _codec("pickle")
    inner = codec.frame_batch(_messages(seed=2, count=2))
    body_len = 4 + len(inner)
    evil = (
        _HEADER.pack(body_len, FLAG_BATCH)
        + (1).to_bytes(4, "big")
        + inner
    )
    parser = FrameStreamParser(codec)
    assert parser.feed(evil) == []
    assert isinstance(parser.failed, SerializationError)


def test_messages_before_a_malformed_frame_are_kept():
    """Oracle parity: the blocking reader delivers frame by frame, so the
    good frames ahead of a bad one in the same chunk must not be lost."""
    codec = _codec("pickle")
    good = _messages(seed=3, count=2)
    bad = _HEADER.pack(codec.max_frame + 1, 0)
    buffer = codec.frame(good[0]) + codec.frame(good[1]) + bad
    parser = FrameStreamParser(codec)
    assert parser.feed(buffer) == good
    assert isinstance(parser.failed, SerializationError)
    assert parser.messages == 2
    assert parser.frames == 2
    assert parser.pending == 0


def test_compact_codec_decodes_from_memoryview_and_interns():
    codec = CompactCodec()
    from repro.cats.remote import ClientGet  # a @register_compact message

    # Compact layouts intern decoded addresses; feeding a memoryview must
    # take the same zero-copy path and yield the canonical instances.
    message = ClientGet(source=A, destination=B, key=42, op_id=7)
    decoded = codec.decode(memoryview(codec.encode(message)))
    assert decoded == message
    assert decoded.source is A.intern()
    assert decoded.destination is B.intern()
