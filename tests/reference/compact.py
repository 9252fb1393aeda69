"""The interpreted compact codec, kept as an oracle.

This is :mod:`repro.network.compact` as it was before layouts were
compiled: a per-type *spec* of ``(field, pack, unpack)`` closures derived
from the dataclass's type hints, walked field by field on every message.
The field codecs, ``_codec_for`` and the encode/decode loops are kept
verbatim (``_Entry.spec()``'s body is ``_spec_of``, so nested dataclasses
share it), including the old decoder's laxness: a length prefix may run
past the payload and trailing bytes are ignored.  The differential feeds
it valid frames only.

It reads the registry of :mod:`repro.network.compact` and has two modes:

- ``legacy=True`` interprets the layouts of that era: a ``Value`` union,
  a ``tuple[Record, ...]`` and a fixed-arity tuple all ride pickle blobs.
  A type whose layout did not change must encode to the same bytes here
  as under the compiled codec.
- ``legacy=False`` adds interpreted forms of the three layouts the
  compiled codec introduced (the tagged value union, nested dataclasses,
  fixed-arity tuples), so every registered type has an oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct
import types
import typing

from repro.network.address import Address
from repro.network.compact import Value, registered_types
from repro.network.message import Message
from repro.network.serialization import Codec, SerializationError

_COMPACT = 0x01

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U8 = struct.Struct(">B")


def _tag_of(name: str) -> int:
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=4).digest()
    return _U32.unpack(digest)[0]


# --------------------------------------------------------- field codecs


def _pack_str(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def _unpack_str(view: memoryview, offset: int) -> tuple[str, int]:
    (length,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    return bytes(view[offset : offset + length]).decode("utf-8"), offset + length


def _pack_address(out: bytearray, value: Address) -> None:
    _pack_str(out, value.host)
    out += _I64.pack(value.port)
    if value.node_id is None:
        out += _U8.pack(0)
    else:
        out += _U8.pack(1)
        out += _I64.pack(value.node_id)


def _unpack_address(view: memoryview, offset: int) -> tuple[Address, int]:
    host, offset = _unpack_str(view, offset)
    (port,) = _I64.unpack_from(view, offset)
    offset += _I64.size
    (flag,) = _U8.unpack_from(view, offset)
    offset += _U8.size
    node_id = None
    if flag:
        (node_id,) = _I64.unpack_from(view, offset)
        offset += _I64.size
    # Interning here collapses every decoded copy of a peer's identity to
    # one canonical object: the decode path runs once per received message,
    # and downstream dict/set lookups then hit the identity fast path.
    return Address(host, port, node_id).intern(), offset


def _scalar_codec(fmt: struct.Struct):
    def pack(out: bytearray, value) -> None:
        out += fmt.pack(value)

    def unpack(view: memoryview, offset: int):
        (value,) = fmt.unpack_from(view, offset)
        return value, offset + fmt.size

    return pack, unpack


def _pack_bytes(out: bytearray, value: bytes) -> None:
    out += _U32.pack(len(value))
    out += value


def _unpack_bytes(view: memoryview, offset: int) -> tuple[bytes, int]:
    (length,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    return bytes(view[offset : offset + length]), offset + length


def _pack_blob(out: bytearray, value) -> None:
    raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    out += _U32.pack(len(raw))
    out += raw


def _unpack_blob(view: memoryview, offset: int):
    (length,) = _U32.unpack_from(view, offset)
    offset += _U32.size
    return pickle.loads(bytes(view[offset : offset + length])), offset + length


def _optional_codec(inner):
    inner_pack, inner_unpack = inner

    def pack(out: bytearray, value) -> None:
        if value is None:
            out += _U8.pack(0)
        else:
            out += _U8.pack(1)
            inner_pack(out, value)

    def unpack(view: memoryview, offset: int):
        (flag,) = _U8.unpack_from(view, offset)
        offset += _U8.size
        if not flag:
            return None, offset
        return inner_unpack(view, offset)

    return pack, unpack


def _tuple_codec(inner):
    inner_pack, inner_unpack = inner

    def pack(out: bytearray, value) -> None:
        out += _U32.pack(len(value))
        for item in value:
            inner_pack(out, item)

    def unpack(view: memoryview, offset: int):
        (count,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        items = []
        for _ in range(count):
            item, offset = inner_unpack(view, offset)
            items.append(item)
        return tuple(items), offset

    return pack, unpack


_NONE_TYPE = type(None)


def _codec_for(tp, legacy: bool = False):
    """(pack, unpack) for a resolved type hint; pickle blob when ungroundable."""
    if not legacy:
        extended = _extended_codec_for(tp)
        if extended is not None:
            return extended
    if tp is int:
        return _scalar_codec(_I64)
    if tp is bool:
        return _scalar_codec(_U8)[0], _make_bool_unpack()
    if tp is float:
        return _scalar_codec(_F64)
    if tp is str:
        return _pack_str, _unpack_str
    if tp is bytes:
        return _pack_bytes, _unpack_bytes
    if tp is Address:
        return _pack_address, _unpack_address
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        non_none = [a for a in args if a is not _NONE_TYPE]
        if len(non_none) == 1 and len(args) == 2:
            return _optional_codec(_codec_for(non_none[0], legacy))
        return _pack_blob, _unpack_blob
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _tuple_codec(_codec_for(args[0], legacy))
    return _pack_blob, _unpack_blob


def _allows_none(tp) -> bool:
    if tp is object or tp is typing.Any or tp is _NONE_TYPE:
        return True
    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is types.UnionType:
        return _NONE_TYPE in typing.get_args(tp)
    return False


def _make_bool_unpack():
    def unpack(view: memoryview, offset: int):
        (value,) = _U8.unpack_from(view, offset)
        return bool(value), offset + _U8.size

    return unpack


# ------------------------------------- layouts the compiled codec added

_VALUE_TAGS = {type(None): 0, bool: 1, int: 3, float: 4, str: 5, bytes: 6}


def _pack_value(out: bytearray, value) -> None:
    tag = _VALUE_TAGS[type(value)]
    if tag == 1:
        out += _U8.pack(2 if value else 1)
    else:
        out += _U8.pack(tag)
    if tag == 3:
        out += _I64.pack(value)
    elif tag == 4:
        out += _F64.pack(value)
    elif tag == 5:
        _pack_str(out, value)
    elif tag == 6:
        _pack_bytes(out, value)


def _unpack_value(view: memoryview, offset: int):
    (tag,) = _U8.unpack_from(view, offset)
    offset += _U8.size
    if tag == 0:
        return None, offset
    if tag in (1, 2):
        return tag == 2, offset
    if tag == 3:
        (value,) = _I64.unpack_from(view, offset)
        return value, offset + _I64.size
    if tag == 4:
        (value,) = _F64.unpack_from(view, offset)
        return value, offset + _F64.size
    if tag == 5:
        return _unpack_str(view, offset)
    if tag == 6:
        return _unpack_bytes(view, offset)
    raise SerializationError(f"unknown value tag {tag}")


def _sequence_codec(codecs, cls=None):
    """Items back to back: a fixed-arity tuple, or the fields of ``cls``."""

    def pack(out: bytearray, value) -> None:
        items = value if cls is None else [
            getattr(value, f.name) for f in dataclasses.fields(cls)
        ]
        for (item_pack, _), item in zip(codecs, items, strict=True):
            item_pack(out, item)

    def unpack(view: memoryview, offset: int):
        items = []
        for _, item_unpack in codecs:
            item, offset = item_unpack(view, offset)
            items.append(item)
        return (tuple(items) if cls is None else cls(*items)), offset

    return pack, unpack


def _extended_codec_for(tp):
    if tp == Value:
        return _pack_value, _unpack_value
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and args and Ellipsis not in args:
        return _sequence_codec([_codec_for(arg) for arg in args])
    if isinstance(tp, type) and dataclasses.is_dataclass(tp) and tp is not Address:
        return _sequence_codec([spec[1:] for spec in _spec_of(tp, False)], tp)
    return None


# ------------------------------------------------------------- registry


def _spec_of(cls: type, legacy: bool):
    try:
        hints = typing.get_type_hints(cls)
    except Exception:  # noqa: BLE001 - unresolvable hints: blob everything
        hints = {}
    spec = []
    for f in dataclasses.fields(cls):
        tp = hints.get(f.name, object)
        # A field defaulting to None is optional in practice even
        # when its annotation claims otherwise; same layout as an
        # honest ``X | None`` so the two spellings interoperate.
        if f.default is None and not _allows_none(tp):
            tp = typing.Optional[tp]
        spec.append((f.name,) + tuple(_codec_for(tp, legacy)))
    return tuple(spec)


class _Entry:
    __slots__ = ("cls", "tag", "_spec", "legacy")

    def __init__(self, cls: type, tag: int, legacy: bool) -> None:
        self.cls = cls
        self.tag = tag
        self.legacy = legacy
        self._spec = None  # lazily derived: annotations may not resolve yet

    def spec(self):
        if self._spec is None:
            self._spec = _spec_of(self.cls, self.legacy)
        return self._spec


class ReferenceCompactCodec(Codec):
    """The interpreted codec over registered types only."""

    def __init__(self, legacy: bool = False) -> None:
        self._by_class = {
            cls: _Entry(cls, _tag_of(cls.__name__), legacy)
            for cls in registered_types()
        }
        self._by_tag = {entry.tag: entry for entry in self._by_class.values()}

    def encode(self, message: Message) -> bytes:
        entry = self._by_class[type(message)]
        out = bytearray([_COMPACT])
        out += _U32.pack(entry.tag)
        try:
            for name, pack, _ in entry.spec():
                pack(out, getattr(message, name))
        except Exception as exc:  # noqa: BLE001
            raise SerializationError(
                f"cannot compact-encode {message!r}: {exc}"
            ) from exc
        return bytes(out)

    def decode(self, payload) -> Message:
        marker = payload[0]
        if marker == _COMPACT:
            view = memoryview(payload)
            (tag,) = _U32.unpack_from(view, 1)
            entry = self._by_tag.get(tag)
            if entry is None:
                raise SerializationError(f"unknown compact tag 0x{tag:08x}")
            offset = 1 + _U32.size
            values = {}
            try:
                for name, _, unpack in entry.spec():
                    values[name], offset = unpack(view, offset)
                message = entry.cls(**values)
            except SerializationError:
                raise
            except Exception as exc:  # noqa: BLE001
                raise SerializationError(
                    f"cannot decode {entry.cls.__name__} frame: {exc}"
                ) from exc
        else:
            raise SerializationError(f"unknown frame marker 0x{marker:02x}")
        return message
