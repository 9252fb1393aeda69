"""The Network abstraction and its pluggable implementations.

Interchangeable providers of the same Network port (the paper's
MINA/Netty/Grizzly pluggability, section 3):

- :class:`LoopbackNetwork` — in-process routing (local stress-test mode),
  and :class:`DelayedLoopbackNetwork` with a latency/loss model;
- :class:`AioTcpNetwork` — real sockets, framing, compression: deployed
  nodes and shard workers alike;
- :class:`repro.simulation.emulator.EmulatedNetwork` — simulated latency
  under virtual time (simulation mode).
"""

from .address import Address, local_address
from .compact import CompactCodec, register_compact
from .delayed import DelayedLoopbackNetwork
from .loopback import LoopbackHub, LoopbackNetwork, hub_of
from .message import Message, Network, NetworkControlMessage
from .serialization import (
    AdaptiveCompressor,
    Codec,
    FrameCodec,
    FrameStreamParser,
    PickleCodec,
    SerializationError,
)

# Imported last: aio reaches into protocols.monitor (Status port), whose
# package init re-imports network submodules — by now they are all loaded.
from .aio import AioTcpNetwork  # noqa: E402  (import-order is load-bearing)

__all__ = [
    "AdaptiveCompressor",
    "Address",
    "AioTcpNetwork",
    "Codec",
    "CompactCodec",
    "DelayedLoopbackNetwork",
    "FrameCodec",
    "FrameStreamParser",
    "LoopbackHub",
    "LoopbackNetwork",
    "Message",
    "Network",
    "NetworkControlMessage",
    "PickleCodec",
    "SerializationError",
    "hub_of",
    "local_address",
    "register_compact",
]
