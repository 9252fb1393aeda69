"""Bounded malformed-frame property over the compact wire.

Seeded and standard-library only.  The corpus is one valid payload per
type ``src/`` registers, every optional filled and every tuple non-empty,
so each length and count field of each layout is present.  Mutants are
every truncation, one padded copy, seeded bit flips anywhere in the wire
frame (header included), and every 4-byte window overwritten with an
inflated u32.  Each mutant goes through ``CompactCodec.decode`` and, as a
plain frame and inside a batch frame, through ``FrameStreamParser.feed``.

The property: every input yields registered messages or a
``SerializationError``; a parser that fails keeps that one error and
raises it on every later feed; no other exception type escapes.
"""

from __future__ import annotations

import random
import struct
import time

from repro.network.compact import CompactCodec, is_registered
from repro.network.serialization import (
    FLAG_BATCH,
    FrameCodec,
    FrameStreamParser,
    SerializationError,
)
from tests.substrate.wire_kit import sample, wire_types

SEED = 6
FLIPS_PER_FRAME = 64
_HEADER = struct.Struct(">IB")
_INFLATED = (0x7FFFFFFF, 0xFFFFFFFF)

CODEC = CompactCodec()
FRAMES = FrameCodec()


def _corpus():
    rng = random.Random(SEED)
    return [CODEC.encode(sample(cls, rng, full=True)) for cls in wire_types()]


def _payload_mutants(payload: bytes):
    for cut in range(len(payload)):
        yield payload[:cut]
    yield payload + b"\x00"
    for offset in range(1, len(payload) - 3):
        for value in _INFLATED + (len(payload) - offset,):
            mutant = bytearray(payload)
            mutant[offset : offset + 4] = value.to_bytes(4, "big")
            yield bytes(mutant)


def _flipped(data: bytes, rng: random.Random) -> bytes:
    mutant = bytearray(data)
    mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
    return bytes(mutant)


def _plain(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), 0) + payload


def _batch(payload: bytes, trailer: bytes) -> bytes:
    body = struct.pack(">I", 2) + _plain(payload) + trailer
    return _HEADER.pack(len(body), FLAG_BATCH) + body


def _decode_or_refuse(payload: bytes) -> None:
    try:
        message = CODEC.decode(payload)
    except SerializationError:
        return
    except Exception as exc:  # noqa: BLE001 - the property under test
        raise AssertionError(f"{type(exc).__name__} escaped for {payload.hex()}") from exc
    assert is_registered(type(message)), payload.hex()


def _feed(wire: bytes, follow: bytes) -> None:
    """Feed ``wire`` then two valid frames; check the property at each step."""
    parser = FrameStreamParser(FRAMES)
    failed = None
    for chunk in (wire, follow, follow):
        try:
            messages = parser.feed(chunk)
        except SerializationError as exc:
            assert failed is not None and exc is failed, wire.hex()
            continue
        except Exception as exc:  # noqa: BLE001 - the property under test
            raise AssertionError(f"{type(exc).__name__} escaped for {wire.hex()}") from exc
        assert failed is None, f"a failed parser accepted more input after {wire.hex()}"
        assert all(is_registered(type(message)) for message in messages)
        failed = parser.failed
        assert failed is None or isinstance(failed, SerializationError)
    assert parser.failed is failed


def test_malformed_frames_yield_messages_or_one_serialization_error():
    started = time.perf_counter()
    rng = random.Random(SEED)
    corpus = _corpus()
    follow = _plain(corpus[0])
    mutants = 0
    for payload in corpus:
        for mutant in _payload_mutants(payload):
            _decode_or_refuse(mutant)
            _feed(_plain(mutant), follow)
            _feed(_batch(mutant, follow), follow)
            mutants += 1
        for wire in (_plain(payload), _batch(payload, follow)):
            for _ in range(FLIPS_PER_FRAME):
                _feed(_flipped(wire, rng), follow)
                mutants += 1
        for _ in range(FLIPS_PER_FRAME):
            _decode_or_refuse(_flipped(payload, rng))
            mutants += 1
    assert mutants > 10_000
    assert time.perf_counter() - started < 5.0
