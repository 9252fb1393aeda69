"""Compact binary codec with a per-message-type registry (roadmap item 2).

The paper's CATS deployment swaps pickle-style generic serialization for
Kryo with registered message types; this module is the analogous hot path
and :class:`~repro.network.serialization.FrameCodec`'s default codec.  A
wire message opts in with one line::

    @register_compact
    @dataclass(frozen=True, slots=True)
    class FdPing(NetworkControlMessage):
        sequence: int = 0

Registration derives a field-by-field binary layout from the dataclass's
resolved type hints: fixed-width scalars, length-prefixed strings/bytes,
packed :class:`~repro.network.address.Address` records, optionals,
homogeneous and fixed-arity tuples, nested dataclasses, and the
:data:`Value` union a CATS register holds.  A field it cannot ground
(``object`` payloads, heterogeneous unions) rides a length-prefixed pickle
blob, so every registered type round-trips whatever its shape; no type
registered under ``src/`` has one.  On first use each layout is compiled,
the way :mod:`dataclasses` builds ``__init__``, into one encode and one
decode function: consecutive fixed-width fields share one precompiled
:class:`struct.Struct`, an address is emitted from bytes cached on the
interned object, and the decoded message is built with one positional
call.  Unregistered messages ride plain pickle, so :class:`CompactCodec`
stays a drop-in :class:`~repro.network.serialization.Codec` for any
transport.

Frame layout (big-endian)::

    +--------+----------------------------------------+
    | 0x80.. | pickle(message), exactly PickleCodec's |  fallback
    +--------+--------+-------------------------------+
    | 0x01   | tag u32| field encodings, declared order|  registered
    +--------+--------+-------------------------------+

Pickle's own protocol opcode (``0x80``) is the fallback's marker.  The tag
is a blake2b-32 digest of the class name, so it is stable across processes
and import orders; a digest collision fails loudly at registration time.
The distribution-readiness analysis (rule ``D006``) checks that every event
crossing a ``Network`` port carries one of these registrations.

Decoding is defensive: every malformed payload raises
:class:`~repro.network.serialization.SerializationError`, a length or count
is checked against the bytes that remain before anything is allocated, and
trailing bytes are an error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct
import types
import typing

from ..core.errors import KompicsError
from .address import Address
from .message import Message
from .serialization import Codec, PickleCodec, SerializationError

_COMPACT = 0x01
#: Pickle's PROTO opcode, the first byte of every protocol 2+ pickle.
_PICKLED = 0x80

_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_TAG_LEN = struct.Struct(">BI")
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_PORT_NO_ID = struct.Struct(">qB")
_PORT_ID = struct.Struct(">qBq")

#: What a replicated value may be on the wire.  The paper's CATS stores
#: byte arrays; ``str``, ``int``, ``float``, ``bool`` and ``None`` ride
#: along for tests and examples.  Anything else fails at the sender.
Value = typing.Optional[typing.Union[bool, int, float, str, bytes]]

# Value tags: one byte, then the scalar or a u32-length-prefixed body.
_V_NONE, _V_FALSE, _V_TRUE, _V_INT, _V_FLOAT, _V_STR, _V_BYTES = range(7)
_V_HEAD_NONE = bytes([_V_NONE])
_V_HEAD_FALSE = bytes([_V_FALSE])
_V_HEAD_TRUE = bytes([_V_TRUE])

#: Decode-side cache of address encodings.  A peer chooses what it sends,
#: so the table is cleared when full instead of growing with its input.
_ADDRESS_CACHE_LIMIT = 4096
_ADDRESSES: dict[bytes, Address] = {}


class CompactRegistrationError(KompicsError):
    """A class could not be registered with the compact codec."""


def _tag_bytes(name: str) -> bytes:
    return hashlib.blake2b(name.encode("utf-8"), digest_size=4).digest()


# --------------------------------------------------- runtime helpers


def _truncated() -> SerializationError:
    return SerializationError("truncated compact frame")


def _too_many(count: int, remaining: int) -> SerializationError:
    return SerializationError(
        f"count {count} cannot fit in the {remaining} bytes that remain"
    )


def _address_wire(address: Address) -> bytes:
    """The address's encoding, cached on the (usually interned) object."""
    if not isinstance(address, Address):
        raise TypeError(f"expected an Address, got {type(address).__name__}")
    host = address.host.encode("utf-8")
    if address.node_id is None:
        tail = _PORT_NO_ID.pack(address.port, 0)
    else:
        tail = _PORT_ID.pack(address.port, 1, address.node_id)
    wire = _U32.pack(len(host)) + host + tail
    object.__setattr__(address, "_wire", wire)
    return wire


def _parse_address(b: bytes, o: int, e: int) -> Address:
    """Decode the address in ``b[o:e]`` (bounds already checked)."""
    host_end = o + 4 + _U32.unpack_from(b, o)[0]
    host = b[o + 4 : host_end].decode("utf-8")
    port = _I64.unpack_from(b, host_end)[0]
    node_id = _I64.unpack_from(b, host_end + 9)[0] if b[host_end + 8] else None
    # Interning collapses every decoded copy of a peer's identity to one
    # canonical object, so downstream dict/set lookups hit the identity
    # fast path and re-encoding it reuses its cached bytes.
    address = Address(host, port, node_id).intern()
    if len(_ADDRESSES) >= _ADDRESS_CACHE_LIMIT:
        _ADDRESSES.clear()
    _ADDRESSES[b[o:e]] = address
    return address


def _encode_value(value) -> tuple[bytes, bytes]:
    """(header, body) of a :data:`Value`; body is empty for scalars."""
    cls = value.__class__
    if cls is bytes:
        return _TAG_LEN.pack(_V_BYTES, len(value)), value
    if cls is str:
        raw = value.encode("utf-8")
        return _TAG_LEN.pack(_V_STR, len(raw)), raw
    if value is None:
        return _V_HEAD_NONE, b""
    if cls is int:
        return _TAG_I64.pack(_V_INT, value), b""
    if cls is bool:
        return (_V_HEAD_TRUE if value else _V_HEAD_FALSE), b""
    if cls is float:
        return _TAG_F64.pack(_V_FLOAT, value), b""
    raise SerializationError(
        f"a {cls.__name__} is not a wire value (None, bool, int, float, str or bytes)"
    )


def _decode_value(b: bytes, o: int, n: int):
    tag = b[o]
    o += 1
    if tag == _V_BYTES or tag == _V_STR:
        e = _U32.unpack_from(b, o)[0] + o + 4
        if e > n:
            raise _truncated()
        raw = b[o + 4 : e]
        return (raw if tag == _V_BYTES else raw.decode("utf-8")), e
    if tag == _V_NONE:
        return None, o
    if tag == _V_INT:
        return _I64.unpack_from(b, o)[0], o + 8
    if tag == _V_FLOAT:
        return _F64.unpack_from(b, o)[0], o + 8
    if tag == _V_FALSE or tag == _V_TRUE:
        return tag == _V_TRUE, o
    raise SerializationError(f"unknown value tag {tag}")


def _encode_blob(value) -> tuple[bytes, bytes]:
    raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return _U32.pack(len(raw)), raw


def _decode_blob(b: bytes, o: int, n: int):
    e = _U32.unpack_from(b, o)[0] + o + 4
    if e > n:
        raise _truncated()
    return pickle.loads(b[o + 4 : e]), e


# ---------------------------------------------------- code generation


class _Gen:
    """One generated function: its source lines and the names it binds."""

    def __init__(self, namespace: dict) -> None:
        self.ns = namespace
        self.lines: list[str] = []
        self._count = 0

    def var(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def const(self, value, prefix: str = "_k") -> str:
        name = self.var(prefix)
        self.ns[name] = value
        return name

    def emit(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)


class _Layout:
    """One field shape.  ``encode`` emits statements and returns the piece
    expressions that make up its bytes; ``decode`` emits statements that
    advance ``o`` and returns the expression holding the value."""

    min_size = 0
    describe = ""

    def encode(self, g: _Gen, indent: int, src: str) -> list[str]:
        raise NotImplementedError

    def decode(self, g: _Gen, indent: int) -> str:
        raise NotImplementedError


class _Fixed(_Layout):
    def __init__(self, char: str, describe: str) -> None:
        self.char = char
        self.min_size = struct.calcsize(">" + char)
        self.describe = describe

    def encode(self, g, indent, src):
        return [f"{g.const(struct.Struct('>' + self.char), '_s')}.pack({src})"]

    def decode(self, g, indent):
        value = g.var("x")
        fmt = g.const(struct.Struct(">" + self.char), "_s")
        g.emit(indent, f"{value} = {fmt}.unpack_from(b, o)[0]")
        g.emit(indent, f"o += {self.min_size}")
        return value


class _Sized(_Layout):
    """u32 length, then raw bytes (``utf8`` decodes them to ``str``)."""

    min_size = 4

    def __init__(self, utf8: bool) -> None:
        self.utf8 = utf8
        self.describe = "str" if utf8 else "bytes"

    def encode(self, g, indent, src):
        raw = g.var("r")
        g.emit(indent, f"{raw} = {src}.encode('utf-8')" if self.utf8 else f"{raw} = {src}")
        return [f"_U32.pack(len({raw}))", raw]

    def decode(self, g, indent):
        value = g.var("x")
        g.emit(indent, "e = _U32.unpack_from(b, o)[0] + o + 4")
        g.emit(indent, "if e > n:")
        g.emit(indent + 1, "raise _truncated()")
        g.emit(indent, f"{value} = b[o + 4:e]" + (".decode('utf-8')" if self.utf8 else ""))
        g.emit(indent, "o = e")
        return value


class _Addr(_Layout):
    min_size = 13  # u32 host length, i64 port, u8 node-id flag
    describe = "addr"

    def encode(self, g, indent, src):
        wire = g.var("w")
        g.emit(indent, "try:")
        g.emit(indent + 1, f"{wire} = {src}._wire")
        g.emit(indent, "except AttributeError:")
        g.emit(indent + 1, f"{wire} = _address_wire({src})")
        return [wire]

    def decode(self, g, indent):
        value = g.var("x")
        g.emit(indent, "e = _U32.unpack_from(b, o)[0] + o + 13")
        g.emit(indent, "if e > n:")
        g.emit(indent + 1, "raise _truncated()")
        g.emit(indent, "if b[e - 1]:")
        g.emit(indent + 1, "e += 8")
        g.emit(indent + 1, "if e > n:")
        g.emit(indent + 2, "raise _truncated()")
        g.emit(indent, f"{value} = _ADDRESSES.get(b[o:e])")
        g.emit(indent, f"if {value} is None:")
        g.emit(indent + 1, f"{value} = _parse_address(b, o, e)")
        g.emit(indent, "o = e")
        return value


class _Optional(_Layout):
    min_size = 1

    def __init__(self, inner: _Layout) -> None:
        self.inner = inner
        self.describe = f"opt({inner.describe})"

    def encode(self, g, indent, src):
        value, piece = g.var("v"), g.var("p")
        g.emit(indent, f"{value} = {src}")
        g.emit(indent, f"if {value} is None:")
        g.emit(indent + 1, f"{piece} = b'\\x00'")
        g.emit(indent, "else:")
        pieces = self.inner.encode(g, indent + 1, value)
        g.emit(indent + 1, f"{piece} = b''.join((b'\\x01', {', '.join(pieces)}))")
        return [piece]

    def decode(self, g, indent):
        value = g.var("x")
        g.emit(indent, "if b[o]:")
        g.emit(indent + 1, "o += 1")
        inner = self.inner.decode(g, indent + 1)
        g.emit(indent + 1, f"{value} = {inner}")
        g.emit(indent, "else:")
        g.emit(indent + 1, "o += 1")
        g.emit(indent + 1, f"{value} = None")
        return value


class _Tuple(_Layout):
    """u32 count, then that many items of one layout."""

    min_size = 4

    def __init__(self, item: _Layout) -> None:
        self.item = item
        self.describe = f"tuple({item.describe})"

    def encode(self, g, indent, src):
        value, parts, item = g.var("v"), g.var("q"), g.var("i")
        g.emit(indent, f"{value} = {src}")
        g.emit(indent, f"{parts} = [_U32.pack(len({value}))]")
        g.emit(indent, f"for {item} in {value}:")
        pieces = self.item.encode(g, indent + 1, item)
        if len(pieces) == 1 and not pieces[0].startswith("*"):
            g.emit(indent + 1, f"{parts}.append({pieces[0]})")
        else:
            g.emit(indent + 1, f"{parts} += ({', '.join(pieces)},)")
        return [f"*{parts}"]

    def decode(self, g, indent):
        value, count, items = g.var("x"), g.var("c"), g.var("q")
        g.emit(indent, f"{count} = _U32.unpack_from(b, o)[0]")
        g.emit(indent, "o += 4")
        # Checked before the loop allocates anything: every item takes at
        # least min_size bytes of what remains.
        g.emit(indent, f"if {count} * {max(1, self.item.min_size)} > n - o:")
        g.emit(indent + 1, f"raise _too_many({count}, n - o)")
        g.emit(indent, f"{items} = []")
        g.emit(indent, f"for _ in range({count}):")
        inner = self.item.decode(g, indent + 1)
        g.emit(indent + 1, f"{items}.append({inner})")
        g.emit(indent, f"{value} = tuple({items})")
        return value


class _Record(_Layout):
    """A sequence of fields: a message, a nested dataclass or a fixed-arity
    tuple.  Runs of fixed-width fields share one struct."""

    def __init__(self, fields: "list[tuple[str, _Layout]]", cls=None) -> None:
        self.fields = fields
        self.cls = cls  # None: a plain tuple
        self.min_size = sum(layout.min_size for _, layout in fields)
        inner = ",".join(f"{name}:{layout.describe}" for name, layout in fields)
        self.describe = f"{cls.__name__}{{{inner}}}" if cls else f"({inner})"

    def runs(self):
        """Fields grouped into runs: (names, fixed layouts) or (name, layout)."""
        run: list = []
        for name, layout in self.fields:
            if isinstance(layout, _Fixed):
                run.append((name, layout))
                continue
            if run:
                yield run
                run = []
            yield (name, layout)
        if run:
            yield run

    def encode_fields(self, g, indent, sources, label: bool = False):
        pieces: list[str] = []
        for run in self.runs():
            if isinstance(run, list):
                names = [name for name, _ in run]
                fmt = g.const(struct.Struct(">" + "".join(l.char for _, l in run)), "_s")
                if label:
                    g.emit(indent, f"f = {', '.join(names)!r}")
                piece = g.var("p")
                args = ", ".join(sources[name] for name in names)
                g.emit(indent, f"{piece} = {fmt}.pack({args})")
                pieces.append(piece)
            else:
                name, layout = run
                if label:
                    g.emit(indent, f"f = {name!r}")
                pieces += layout.encode(g, indent, sources[name])
        return pieces

    def encode(self, g, indent, src):
        if self.cls is None:
            names = [g.var("t") for _ in self.fields]
            g.emit(indent, f"{', '.join(names)}, = {src}")
            sources = {name: local for (name, _), local in zip(self.fields, names)}
        else:
            value = g.var("v")
            g.emit(indent, f"{value} = {src}")
            sources = {name: f"{value}.{name}" for name, _ in self.fields}
        return self.encode_fields(g, indent, sources)

    def decode_fields(self, g, indent) -> list[str]:
        values: list[str] = []
        for run in self.runs():
            if isinstance(run, list):
                fmt = struct.Struct(">" + "".join(l.char for _, l in run))
                names = [g.var("x") for _ in run]
                g.emit(indent, f"{', '.join(names)}, = {g.const(fmt, '_s')}.unpack_from(b, o)")
                g.emit(indent, f"o += {fmt.size}")
                values += names
            else:
                values.append(run[1].decode(g, indent))
        return values

    def construct(self, g, values: list[str]) -> str:
        if self.cls is None:
            return f"({', '.join(values)},)"
        args = []
        for field, value in zip(dataclasses.fields(self.cls), values):
            args.append(f"{field.name}={value}" if field.kw_only else value)
        return f"{g.const(self.cls, '_C')}({', '.join(args)})"

    def decode(self, g, indent):
        value = g.var("x")
        g.emit(indent, f"{value} = {self.construct(g, self.decode_fields(g, indent))}")
        return value


class _Leaf(_Layout):
    """A field decoded by a helper returning ``(value, offset)``."""

    def __init__(self, describe: str, encode, decode, min_size: int) -> None:
        self.describe = describe
        self._encode = encode
        self._decode = decode
        self.min_size = min_size

    def encode(self, g, indent, src):
        head, body = g.var("h"), g.var("d")
        g.emit(indent, f"{head}, {body} = {g.const(self._encode, '_e')}({src})")
        return [head, body]

    def decode(self, g, indent):
        value = g.var("x")
        g.emit(indent, f"{value}, o = {g.const(self._decode, '_d')}(b, o, n)")
        return value


_INT = _Fixed("q", "i64")
_FLOAT = _Fixed("d", "f64")
_BOOL = _Fixed("?", "bool")
_STR = _Sized(utf8=True)
_BYTES = _Sized(utf8=False)
_ADDR = _Addr()
_VALUE = _Leaf("value", _encode_value, _decode_value, 1)
_BLOB = _Leaf("blob", _encode_blob, _decode_blob, 4)
_NONE_TYPE = type(None)


def _allows_none(tp) -> bool:
    if tp is object or tp is typing.Any or tp is _NONE_TYPE:
        return True
    origin = typing.get_origin(tp)
    if origin is typing.Union or origin is types.UnionType:
        return _NONE_TYPE in typing.get_args(tp)
    return False


def _layout_for(tp, active: frozenset = frozenset()) -> _Layout:
    """The layout of a resolved type hint; a pickle blob when ungroundable."""
    simple = {int: _INT, float: _FLOAT, bool: _BOOL, str: _STR, bytes: _BYTES, Address: _ADDR}
    if isinstance(tp, type) and tp in simple:
        return simple[tp]
    if tp == Value:
        return _VALUE
    origin = typing.get_origin(tp)
    args = typing.get_args(tp)
    if origin is typing.Union or origin is types.UnionType:
        non_none = [a for a in args if a is not _NONE_TYPE]
        if len(non_none) == 1 and len(args) == 2:
            return _Optional(_layout_for(non_none[0], active))
        return _BLOB
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _Tuple(_layout_for(args[0], active))
    if origin is tuple and args and Ellipsis not in args:
        return _Record(
            [(str(i), _layout_for(arg, active)) for i, arg in enumerate(args)]
        )
    if dataclasses.is_dataclass(tp) and isinstance(tp, type) and tp not in active:
        return _record_layout(tp, active | {tp})
    return _BLOB


def _record_layout(cls: type, active: frozenset = frozenset()) -> _Record:
    try:
        hints = typing.get_type_hints(cls)
    except Exception:  # noqa: BLE001 - unresolvable hints: blob everything
        hints = {}
    fields = []
    for f in dataclasses.fields(cls):
        tp = hints.get(f.name, object)
        # A field defaulting to None is optional in practice even when its
        # annotation claims otherwise; same layout as an honest ``X | None``
        # so the two spellings interoperate.
        if f.default is None and not _allows_none(tp):
            tp = typing.Optional[tp]
        fields.append((f.name, _layout_for(tp, active | {cls})))
    return _Record(fields, cls)


def _compile(cls: type, tag: bytes):
    """Build ``cls``'s encode and decode functions from its layout."""
    layout = _record_layout(cls)
    namespace = {
        "_CLS": cls,
        "_HEAD": bytes([_COMPACT]) + tag,
        "_U32": _U32,
        "_ADDRESSES": _ADDRESSES,
        "_address_wire": _address_wire,
        "_parse_address": _parse_address,
        "_truncated": _truncated,
        "_too_many": _too_many,
        "_fail": _encode_failed,
        "SerializationError": SerializationError,
    }

    enc = _Gen(namespace)
    enc.emit(0, "def encode(m):")
    enc.emit(1, "f = None")
    enc.emit(1, "try:")
    sources = {name: f"m.{name}" for name, _ in layout.fields}
    pieces = layout.encode_fields(enc, 2, sources, label=True)
    enc.emit(2, f"return b''.join((_HEAD, {', '.join(pieces)}))")
    enc.emit(1, "except Exception as exc:")
    enc.emit(2, "raise _fail(_CLS, f, exc) from exc")

    dec = _Gen(namespace)
    dec.emit(0, "def decode(b):")
    dec.emit(1, "n = len(b)")
    dec.emit(1, "o = 5")
    dec.emit(1, "try:")
    values = layout.decode_fields(dec, 2)
    dec.emit(2, "if o != n:")
    dec.emit(3, "raise SerializationError(f'{n - o} trailing bytes')")
    dec.emit(2, f"return {layout.construct(dec, values)}")
    dec.emit(1, "except SerializationError as exc:")
    dec.emit(2, "raise SerializationError(f'cannot decode {_CLS.__name__} frame: {exc}') from None")
    dec.emit(1, "except Exception as exc:")
    dec.emit(2, "raise SerializationError(f'cannot decode {_CLS.__name__} frame: {exc!r}') from exc")

    source = "\n".join(enc.lines + dec.lines)
    exec(compile(source, f"<compact {cls.__qualname__}>", "exec"), namespace)
    return namespace["encode"], namespace["decode"]


def _encode_failed(cls: type, field, exc: Exception) -> SerializationError:
    where = f"{cls.__name__}.{field}" if field else cls.__name__
    return SerializationError(f"cannot compact-encode {where}: {exc}")


# ------------------------------------------------------------- registry


_BY_TAG: dict[bytes, type] = {}
_BY_CLASS: dict[type, bytes] = {}
#: Compiled on first use: annotations may not resolve at registration.
_ENCODERS: dict[type, typing.Callable] = {}
_DECODERS: dict[bytes, typing.Callable] = {}


def register_compact(cls: type) -> type:
    """Register a frozen dataclass message for compact encoding (decorator)."""
    if not dataclasses.is_dataclass(cls):
        raise CompactRegistrationError(
            f"{cls.__name__} is not a dataclass; the compact layout is "
            "derived from dataclass fields"
        )
    tag = _tag_bytes(cls.__name__)
    existing = _BY_TAG.get(tag)
    if existing is not None and existing.__name__ != cls.__name__:
        raise CompactRegistrationError(
            f"tag collision: {cls.__name__} and {existing.__name__} "
            "share a blake2b-32 digest; rename one"
        )
    _BY_TAG[tag] = cls
    _BY_CLASS[cls] = tag
    _DECODERS.pop(tag, None)  # a redefinition replaces the old class
    return cls


def registered_types() -> frozenset[type]:
    return frozenset(_BY_CLASS)


def is_registered(cls: type) -> bool:
    return cls in _BY_CLASS


def layout_of(cls: type) -> tuple[tuple[str, str], ...]:
    """``(field, layout)`` pairs of a registered type, e.g. ``("value",
    "value")`` or ``("members", "tuple(addr)")``; ``"blob"`` marks a field
    that rides pickle."""
    if cls not in _BY_CLASS:
        raise KeyError(f"{cls.__name__} is not registered")
    return tuple((name, layout.describe) for name, layout in _record_layout(cls).fields)


def _compiled(cls: type):
    tag = _BY_CLASS[cls]
    encode, decode = _compile(cls, tag)
    _ENCODERS[cls] = encode
    if _BY_TAG.get(tag) is cls:
        _DECODERS[tag] = decode
    return encode, decode


_PICKLE = PickleCodec()


class CompactCodec(Codec):
    """Compiled binary codec over the registry, plain pickle for the rest."""

    def encode(self, message: Message) -> bytes:
        encoder = _ENCODERS.get(message.__class__)
        if encoder is None:
            if message.__class__ not in _BY_CLASS:
                return _PICKLE.encode(message)
            encoder = _compiled(message.__class__)[0]
        return encoder(message)

    def decode(self, payload) -> Message:
        # Accepts bytes or a memoryview slice of a receive buffer; the
        # compact path copies it once, so nothing retains the caller's buffer.
        if not len(payload):
            raise SerializationError("empty payload")
        marker = payload[0]
        if marker == _COMPACT:
            if payload.__class__ is not bytes:
                payload = bytes(payload)
            decoder = _DECODERS.get(payload[1:5])
            if decoder is None:
                decoder = self._decoder(payload)
            return decoder(payload)
        if marker == _PICKLED:
            return _PICKLE.decode(payload)
        raise SerializationError(f"unknown frame marker 0x{marker:02x}")

    @staticmethod
    def _decoder(payload: bytes):
        if len(payload) < 5:
            raise _truncated()
        cls = _BY_TAG.get(payload[1:5])
        if cls is None:
            raise SerializationError(f"unknown compact tag 0x{payload[1:5].hex()}")
        return _compiled(cls)[1]
