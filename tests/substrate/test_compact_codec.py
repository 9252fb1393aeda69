"""Compact binary codec: registry, field layouts, pickle parity, framing.

The D006 rule demands a ``@register_compact`` registration for every
message crossing a Network port; these tests prove the codec side of
that contract — every registered type round-trips with value equality,
byte-stable re-encoding, and (for the scalar-field hot messages) a
smaller wire image than pickle."""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro.cats.events import FindSuccessor, FoundSuccessor, WriteRequest
from repro.cats.remote import ClientPut, ClientPutReply
from repro.network.address import Address
from repro.network.compact import (
    CompactCodec,
    CompactRegistrationError,
    is_registered,
    layout_of,
    register_compact,
    registered_types,
)
from repro.network.message import Message, NetworkControlMessage
from repro.network.serialization import FrameCodec, PickleCodec, SerializationError

ADDR = Address("127.0.0.1", 9000, 3)
PEER = Address("10.0.0.2", 9500, 17)


def sample_of(cls):
    """Build one instance filling required fields by annotation name."""
    import dataclasses
    import types
    import typing

    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if (
            f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        ):
            continue
        tp = hints[f.name]
        origin = typing.get_origin(tp)
        if origin is typing.Union or origin is types.UnionType:
            tp = [a for a in typing.get_args(tp) if a is not type(None)][0]
        kwargs[f.name] = {
            int: 11,
            float: 1.5,
            str: "k",
            bytes: b"v",
            bool: True,
            Address: PEER,
        }.get(tp, "opaque")
        if typing.get_origin(tp) is tuple:
            kwargs[f.name] = ()
    return cls(**kwargs)


# ------------------------------------------------------------- registry


def test_every_registered_type_round_trips():
    codec = CompactCodec()
    assert len(registered_types()) >= 30
    for cls in sorted(registered_types(), key=lambda c: c.__name__):
        message = sample_of(cls)
        payload = codec.encode(message)
        assert payload[0] == 0x01, f"{cls.__name__} took the fallback path"
        clone = codec.decode(payload)
        assert clone == message
        assert codec.encode(clone) == payload  # byte stability
        # pickle parity: the compact image decodes to the same value
        # pickle would have carried
        assert clone == pickle.loads(pickle.dumps(message))


def test_hot_messages_beat_pickle():
    codec = CompactCodec()
    for message in (
        FindSuccessor(source=ADDR, destination=PEER, key=123456789),
        FoundSuccessor(source=ADDR, destination=PEER, key=1, responsible=PEER),
        WriteRequest(source=ADDR, destination=PEER, key=42, value="x"),
        ClientPut(source=ADDR, destination=PEER, key=99, value="b"),
    ):
        compact = len(codec.encode(message))
        pickled = len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
        assert compact < pickled, (
            f"{type(message).__name__}: compact {compact} >= pickle {pickled}"
        )


def test_registration_requires_a_dataclass():
    class NotADataclass:  # NetworkControlMessage subclasses inherit
        pass              # dataclass fields, so use a truly plain class

    with pytest.raises(CompactRegistrationError, match="not a dataclass"):
        register_compact(NotADataclass)
    assert not is_registered(NotADataclass)


def test_reregistering_same_name_is_idempotent():
    assert is_registered(FindSuccessor)
    assert register_compact(FindSuccessor) is FindSuccessor


# ---------------------------------------------------------- field kinds


@register_compact
@dataclass(frozen=True)
class _Kinds(NetworkControlMessage):
    count: int = 0
    ratio: float = 0.0
    flag: bool = False
    label: str = ""
    raw: bytes = b""
    peer: Optional[Address] = None
    peers: tuple[Address, ...] = ()
    mixed: tuple = ()  # heterogeneous: rides the pickle blob
    maybe: Optional[int] = None
    counts: tuple[float, ...] = ()
    pair: tuple[str, Optional[bool]] = ("", None)
    grid: tuple[tuple[int, ...], ...] = ()


def test_field_kind_coverage():
    codec = CompactCodec()
    message = _Kinds(
        source=ADDR,
        destination=PEER,
        count=-5,
        ratio=3.25,
        flag=True,
        label="héllo",
        raw=b"\x00\xff",
        peer=Address("::1", 1, None),
        peers=(ADDR, PEER),
        mixed=(1, "two", None),
        maybe=-2**63,
        counts=(0.5, -1e300),
        pair=("p", False),
        grid=((1, 2), (), (3,)),
    )
    payload = codec.encode(message)
    clone = codec.decode(payload)
    assert clone == message
    assert isinstance(clone.flag, bool)
    assert clone.pair[1] is False
    assert clone.peer.node_id is None
    assert codec.encode(clone) == payload
    # the compiled layout matches the interpreted one, field kind by kind
    from tests.reference.compact import ReferenceCompactCodec

    assert ReferenceCompactCodec().encode(message) == payload
    assert ReferenceCompactCodec().decode(payload) == message


def test_optional_none_takes_one_byte_flag():
    codec = CompactCodec()
    with_peer = _Kinds(source=ADDR, destination=PEER, peer=ADDR)
    without = _Kinds(source=ADDR, destination=PEER, peer=None)
    assert codec.decode(codec.encode(without)).peer is None
    assert len(codec.encode(without)) < len(codec.encode(with_peer))


# ------------------------------------------------------- fallback paths


@dataclass(frozen=True)
class _Unregistered(NetworkControlMessage):
    n: int = 0


def test_unregistered_message_uses_marked_pickle_fallback():
    """The fallback payload is PickleCodec's, byte for byte: pickle's own
    protocol opcode (0x80) is the marker, nothing is prepended."""
    codec = CompactCodec()
    message = _Unregistered(source=ADDR, destination=PEER, n=9)
    payload = codec.encode(message)
    assert payload[0] == 0x80
    assert payload == PickleCodec().encode(message)
    assert codec.decode(payload) == message
    assert codec.decode(memoryview(payload)) == message


def test_unpicklable_fallback_raises_serialization_error():
    codec = CompactCodec()

    @dataclass(frozen=True)
    class _Local(NetworkControlMessage):  # not importable -> unpicklable
        pass

    with pytest.raises(SerializationError, match="cannot pickle"):
        codec.encode(_Local(source=ADDR, destination=PEER))


def test_decode_error_paths():
    codec = CompactCodec()
    with pytest.raises(SerializationError, match="empty"):
        codec.decode(b"")
    with pytest.raises(SerializationError, match="unknown frame marker"):
        codec.decode(b"\x7fjunk")
    with pytest.raises(SerializationError, match="unknown compact tag"):
        codec.decode(b"\x01\xde\xad\xbe\xef")
    with pytest.raises(SerializationError, match="unknown frame marker 0x00"):
        codec.decode(b"\x00" + pickle.dumps("the retired fallback marker"))
    with pytest.raises(SerializationError, match="cannot unpickle"):
        codec.decode(b"\x80garbage")
    # truncated compact frame: tag resolves, fields do not
    good = codec.encode(FindSuccessor(source=ADDR, destination=PEER, key=1))
    with pytest.raises(SerializationError):
        codec.decode(good[: len(good) // 2])
    with pytest.raises(SerializationError, match="not a Message"):
        codec.decode(pickle.dumps("just a string"))


def test_truncated_and_padded_frames_are_rejected():
    """A length prefix that runs past the payload, or bytes left over after
    the last field, fail the frame instead of decoding a shortened value."""
    codec = CompactCodec()
    reply = codec.encode(ClientPutReply(source=ADDR, destination=PEER, error="boom"))
    for bad in (reply[:-2], reply[:-1], reply + b"\x00", reply + b"tail"):
        with pytest.raises(SerializationError):
            codec.decode(bad)
    put = codec.encode(ClientPut(source=ADDR, destination=PEER, key=1, value=b"abcdef"))
    for cut in range(1, len(put) - 5):
        with pytest.raises(SerializationError):
            codec.decode(put[:-cut])


def test_inflated_counts_are_refused_before_allocating():
    from repro.cats.events import GetNeighborsReply

    codec = CompactCodec()
    empty = codec.encode(GetNeighborsReply(source=ADDR, destination=PEER))
    assert empty[-4:] == b"\x00\x00\x00\x00"  # successors: the u32 count comes last
    for count in (3, 2**31, 2**32 - 1):
        inflated = empty[:-4] + count.to_bytes(4, "big") + b"\x00" * 30
        with pytest.raises(SerializationError, match="cannot fit"):
            codec.decode(inflated)


# ---------------------------------------------- interning and slotting


def test_decode_interns_addresses():
    """Every Address a compact frame decodes — top-level, Optional, or
    inside a tuple field — is the canonical interned instance, so a
    million messages from one peer share one Address record."""
    codec = CompactCodec()
    message = _Kinds(
        source=ADDR, destination=PEER, peer=ADDR, peers=(ADDR, PEER)
    )
    first = codec.decode(codec.encode(message))
    second = codec.decode(codec.encode(message))
    assert first.source is second.source
    assert first.peer is second.peer
    assert first.peers[0] is second.peers[0]
    assert first.source is Address("127.0.0.1", 9000, 3).intern()
    # and across codec instances (the cache is module-level)
    assert CompactCodec().decode(codec.encode(message)).source is first.source


def test_slotted_messages_round_trip_without_a_dict():
    """The wire messages are ``slots=True`` dataclasses; the codec must
    not depend on an instance ``__dict__`` on either side."""
    codec = CompactCodec()
    message = WriteRequest(source=ADDR, destination=PEER, key=42, value="x")
    assert not hasattr(message, "__dict__")
    clone = codec.decode(codec.encode(message))
    assert not hasattr(clone, "__dict__")
    assert clone == message
    assert codec.encode(clone) == codec.encode(message)  # byte stability


# ------------------------------------------------------------- framing


def test_frame_codec_interop():
    framed = FrameCodec(CompactCodec())
    message = WriteRequest(
        source=ADDR, destination=PEER, key=7, value="v" * 2048
    )
    frame = framed.frame(message)
    assert framed.unframe(frame) == message
    # and the stream path TcpNetwork uses:
    stream = io.BytesIO(frame + frame)
    assert framed.read_frame(stream) == message
    assert framed.read_frame(stream) == message
    assert framed.read_frame(stream) is None


# ------------------------------------------------------- closed census


def _forbid_pickle(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("pickle called on the compact path")

    monkeypatch.setattr(pickle, "dumps", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)


def test_no_type_registered_from_src_rides_a_pickle_blob():
    from tests.substrate.wire_kit import wire_types

    types = wire_types()
    names = {cls.__name__ for cls in types}
    assert {"_Hello", "ClientPut", "ViewCommit", "ShuffleRequest", "FdPing"} <= names
    assert "MonitorReport" not in names  # keeps its noqa[D006]
    for cls in types:
        blobs = [name for name, layout in layout_of(cls) if "blob" in layout]
        assert not blobs, f"{cls.__name__} still pickles {blobs}"


def test_every_src_type_round_trips_with_pickle_forbidden(monkeypatch):
    import random

    from tests.substrate.wire_kit import sample, wire_types

    types = wire_types()
    rng = random.Random(26)
    samples = [sample(cls, rng, full) for cls in types for full in (False, True)]
    _forbid_pickle(monkeypatch)
    framed = FrameCodec(adaptive=True)  # what AioTcpNetwork builds by default
    for message in samples:
        assert framed.unframe(framed.frame(message)) == message
        assert FrameCodec().unframe(FrameCodec().frame(message)) == message


def test_default_codecs_are_compact():
    from repro.network.aio import AioTcpNetwork
    from repro.network.loopback import LoopbackNetwork
    from tests.kit import Scaffold, make_system

    assert isinstance(FrameCodec().codec, CompactCodec)
    built = {}

    def build(scaffold):
        built["aio"] = scaffold.create(AioTcpNetwork, Address("127.0.0.1", 0)).definition
        built["loop"] = scaffold.create(LoopbackNetwork, ADDR, serialize=True).definition

    system = make_system()
    system.bootstrap(Scaffold, build)
    try:
        assert isinstance(built["aio"].codec.codec, CompactCodec)
        assert isinstance(built["loop"]._codec.codec, CompactCodec)
    finally:
        system.shutdown()


def test_value_outside_the_union_fails_at_the_sender():
    codec = CompactCodec()
    for bad in ({"a": 1}, (1, 2), bytearray(b"x"), 2**70):
        with pytest.raises(SerializationError, match="ClientPut.value"):
            codec.encode(ClientPut(source=ADDR, destination=PEER, key=1, value=bad))
    for good in (None, True, False, -7, 2.5, "s", b"\x00b"):
        message = ClientPut(source=ADDR, destination=PEER, key=1, value=good)
        clone = codec.decode(codec.encode(message))
        assert clone == message and type(clone.value) is type(good)
