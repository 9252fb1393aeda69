"""LoopbackNetwork: in-process Network for multi-node single-process runs.

This is the transport behind the paper's "local, interactive, stress-test
execution" mode (Fig 12 right): every node lives in one OS process, each
with its own LoopbackNetwork component; a shared per-system hub routes
messages by destination address, synchronously and in FIFO order.
Messages are passed by reference (zero-copy).
"""

from __future__ import annotations

import threading

from ..core.component import ComponentDefinition
from ..core.handler import handles
from .address import Address
from .message import Message, Network


class LoopbackHub:
    """Shared address -> component routing table (a system service)."""

    def __init__(self) -> None:
        self._routes: dict[Address, "LoopbackNetwork"] = {}
        self._lock = threading.Lock()
        self.delivered = 0
        self.dropped = 0

    def register(self, address: Address, adapter: "LoopbackNetwork") -> None:
        with self._lock:
            self._routes[address] = adapter

    def unregister(self, address: Address) -> None:
        with self._lock:
            self._routes.pop(address, None)

    def route(self, message: Message) -> bool:
        with self._lock:
            adapter = self._routes.get(message.destination)
        if adapter is None:
            # Unknown destination: a lossy network drops silently, exactly
            # like a datagram to a dead host.
            self.dropped += 1
            return False
        adapter.deliver(message)
        self.delivered += 1
        return True


_SERVICE_KEY = "loopback_hub"


def hub_of(system) -> LoopbackHub:
    """Fetch or lazily create the system's loopback hub."""
    if _SERVICE_KEY not in system.services:
        system.register_service(_SERVICE_KEY, LoopbackHub())
    return system.services[_SERVICE_KEY]


class LoopbackNetwork(ComponentDefinition):
    """Provides Network for one node address within the process."""

    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.port = self.provides(Network)
        self._hub = hub_of(self.system)
        self._hub.register(address, self)
        self.sent = 0
        self.received = 0
        self.subscribe(self.on_send, self.port)

    @handles(Message)
    def on_send(self, message: Message) -> None:
        self.sent += 1
        self._hub.route(message)

    def deliver(self, message: Message) -> None:
        """Called by the hub (possibly from another node's handler)."""
        self.received += 1
        self.trigger(message, self.port)

    def tear_down(self) -> None:
        self._hub.unregister(self.address)
