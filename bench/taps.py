"""Tracing from outside the program: pass-through taps and a codec timer.

A *tap* is a component defined here and connected on the port between two
layers.  It forwards every event unchanged and appends one record per event
to a :class:`TraceLog` held in memory; spans are assembled from those
records after timing stops (``bench/spans.py``).  Taps are spliced into a
running system by the component model's own ``disconnect``/``connect``, so
the same process measures the untraced reference and the traced windows.
"""

from __future__ import annotations

from time import perf_counter

from repro import ComponentDefinition, handles
from repro.cats import GetRequest, GetResponse, PutGet, PutRequest, PutResponse
from repro.network import Message, Network
from repro.network.serialization import FLAG_COMPRESSED, FRAME_OVERHEAD


def message_key(message: Message):
    """Identity of one message on the wire, from fields it already carries.

    None for background traffic (failure detector, gossip, stabilisation),
    which is counted by type but not followed.
    """
    op_id = getattr(message, "op_id", None)
    if op_id is None:
        return None
    return (type(message).__name__, op_id, message.source.port, message.destination.port)


class TraceLog:
    """Everything the taps saw; list appends only, so any thread may write."""

    def __init__(self) -> None:
        #: (direction "out"|"in", time, node tag, message type, key or None)
        self.net: list[tuple] = []
        #: (direction "req"|"resp", time, node tag, op id, kind "get"|"put")
        self.putget: list[tuple] = []
        #: (key or None, seconds, wire bytes, eligible for zlib, compressed)
        self.encoded: list[tuple] = []
        #: (key or None, seconds)
        self.decoded: list[tuple] = []
        #: a few delivered messages, for the parser probe
        self.sample_messages: list[Message] = []


class NetTap(ComponentDefinition):
    """Sits on a Network port: requires it below, provides it above."""

    def __init__(self, log: TraceLog, node: object) -> None:
        super().__init__()
        self.below = self.requires(Network)
        self.above = self.provides(Network)
        self._net = log.net
        self._samples = log.sample_messages
        self._node = node
        self.subscribe(self.on_out, self.above)
        self.subscribe(self.on_in, self.below)

    @handles(Message)
    def on_out(self, message: Message) -> None:
        self._net.append(
            ("out", perf_counter(), self._node, type(message), message_key(message))
        )
        self.trigger(message, self.below)

    @handles(Message)
    def on_in(self, message: Message) -> None:
        self._net.append(
            ("in", perf_counter(), self._node, type(message), message_key(message))
        )
        if len(self._samples) < 512:
            self._samples.append(message)
        self.trigger(message, self.above)


class PutGetTap(ComponentDefinition):
    """Sits on a PutGet port between the remote API and the quorum layer."""

    def __init__(self, log: TraceLog, node: object) -> None:
        super().__init__()
        self.below = self.requires(PutGet)
        self.above = self.provides(PutGet)
        self._putget = log.putget
        self._node = node
        self.subscribe(self.on_put, self.above)
        self.subscribe(self.on_get, self.above)
        self.subscribe(self.on_put_response, self.below)
        self.subscribe(self.on_get_response, self.below)

    @handles(PutRequest)
    def on_put(self, request: PutRequest) -> None:
        self._putget.append(("req", perf_counter(), self._node, request.op_id, "put"))
        self.trigger(request, self.below)

    @handles(GetRequest)
    def on_get(self, request: GetRequest) -> None:
        self._putget.append(("req", perf_counter(), self._node, request.op_id, "get"))
        self.trigger(request, self.below)

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        self._putget.append(("resp", perf_counter(), self._node, response.op_id, "put"))
        self.trigger(response, self.above)

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        self._putget.append(("resp", perf_counter(), self._node, response.op_id, "get"))
        self.trigger(response, self.above)


def splice(parent: ComponentDefinition, tap, lower, uppers, port_type) -> None:
    """Re-route ``lower`` <-> each of ``uppers`` through the created ``tap``.

    Call with the load paused: an event in flight on the old channels
    during the few hundred microseconds between disconnect and connect is
    dropped (the protocols above retransmit).
    """
    parent.start_child(tap)
    for upper in uppers:
        parent.disconnect(lower.provided(port_type), upper.required(port_type))
    parent.connect(lower.provided(port_type), tap.required(port_type))
    for upper in uppers:
        parent.connect(tap.provided(port_type), upper.required(port_type))


def time_codec_in_place(codec, log: TraceLog) -> None:
    """Time the frame codec a backend built, on that same object.

    The instance's public ``encode_payload``/``decode_payload`` are shadowed
    by timing wrappers that call the originals, so framing, compression and
    the parser all keep using the codec the backend constructed.
    """
    encode, decode = codec.encode_payload, codec.decode_payload
    threshold = codec.compress_threshold
    encoded, decoded = log.encoded, log.decoded

    def encode_payload(message):
        start = perf_counter()
        flags, payload = part = encode(message)
        elapsed = perf_counter() - start
        compressed = bool(flags & FLAG_COMPRESSED)
        eligible = compressed or (threshold is not None and len(payload) >= threshold)
        encoded.append(
            (message_key(message), elapsed, len(payload) + FRAME_OVERHEAD, eligible, compressed)
        )
        return part

    def decode_payload(flags, payload):
        start = perf_counter()
        message = decode(flags, payload)
        decoded.append((message_key(message), perf_counter() - start))
        return message

    codec.encode_payload = encode_payload
    codec.decode_payload = decode_payload
