"""The network emulator (paper Fig 12: NetworkEmulator).

Simulation-mode replacement for the real network: the same Network port,
but deliveries are scheduled on the virtual-time event queue through a
configurable latency model, with optional message loss and network
partitions — the "partially synchronous, lossy, partitionable" environment
CATS is designed for.

Architecture: a shared per-simulation :class:`EmulatorCore` service routes
by destination address; each simulated node embeds its own
:class:`EmulatedNetwork` adapter component providing the Network port.
Keeping routing in the service (not event broadcast) keeps delivery O(1)
per message regardless of node count, which matters for Table 1.

A send does not wait for a slot of its own: the adapter registers
:meth:`EmulatedNetwork.on_send` as the direct entry of its Network port,
so a handler's send is routed (latency sampled, delivery scheduled) inside
the sending handler's execution.  Virtual time does not move within a
drain, so the delivery times are those the adapter's own slot would have
computed.  A send made while the adapter is not started, or from outside
a handler, takes its mailbox as before.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Optional

from ..core.component import ComponentDefinition
from ..core.handler import handles
from ..network.address import Address
from ..network.message import Message, Network
from .core import queue_of
from .event_queue import EventQueue
from .latency import ConstantLatency, LatencyModel

EMULATOR_SERVICE = "network_emulator"


class EmulatorCore:
    """Shared routing, latency, loss and partition state (a system service)."""

    def __init__(
        self,
        queue: EventQueue,
        clock,
        rng: random.Random,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
    ) -> None:
        self.queue = queue
        self.clock = clock
        self.rng = rng
        self.latency = latency if latency is not None else ConstantLatency()
        self.loss_rate = loss_rate
        self._adapters: dict[Address, "EmulatedNetwork"] = {}
        self._partitions: list[tuple[frozenset[Address], frozenset[Address]]] = []
        self._one_way: list[tuple[frozenset[Address], frozenset[Address]]] = []
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.lost = 0

    # -------------------------------------------------------------- adapters

    def register(self, address: Address, adapter: "EmulatedNetwork") -> None:
        self._adapters[address] = adapter

    def unregister(self, address: Address) -> None:
        self._adapters.pop(address, None)

    # ------------------------------------------------------------- partitions

    def partition(self, side_a, side_b) -> None:
        """Cut bidirectional connectivity between two address groups."""
        self._partitions.append((frozenset(side_a), frozenset(side_b)))

    def partition_one_way(self, sources, destinations) -> None:
        """Cut only ``sources -> destinations`` traffic (asymmetric link)."""
        self._one_way.append((frozenset(sources), frozenset(destinations)))

    def heal(self) -> None:
        """Remove all partitions (bidirectional and one-way)."""
        self._partitions.clear()
        self._one_way.clear()

    def _partitioned(self, source: Address, destination: Address) -> bool:
        for side_a, side_b in self._partitions:
            if (source in side_a and destination in side_b) or (
                source in side_b and destination in side_a
            ):
                return True
        for sources, destinations in self._one_way:
            if source in sources and destination in destinations:
                return True
        return False

    # ---------------------------------------------------------------- routing

    def route(self, message: Message) -> None:
        self.sent += 1
        if (self._partitions or self._one_way) and self._partitioned(
            message.source, message.destination
        ):
            self.dropped += 1
            return
        if self.loss_rate > 0 and self.rng.random() < self.loss_rate:
            self.lost += 1
            return
        delay = self.latency.sample(self.rng, message.source, message.destination)
        # partial beats a lambda closure here: cheaper to build and to call,
        # and this is the single busiest schedule() site in simulation.
        self.queue.schedule(
            self.clock.now() + delay, partial(self._deliver, message)
        )

    def _deliver(self, message: Message) -> None:
        adapter = self._adapters.get(message.destination)
        if adapter is None:
            # Destination died while the message was in flight.
            self.dropped += 1
            return
        self.delivered += 1
        adapter.deliver(message)


def emulator_of(system) -> EmulatorCore:
    """Fetch or lazily create the system's emulator core (simulation only)."""
    if EMULATOR_SERVICE not in system.services:
        system.register_service(
            EMULATOR_SERVICE,
            EmulatorCore(queue_of(system), system.clock, system.random),
        )
    return system.services[EMULATOR_SERVICE]


class EmulatedNetwork(ComponentDefinition):
    """Provides Network for one simulated node."""

    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.port = self.provides(Network)
        self._emulator = emulator_of(self.system)
        self._emulator.register(address, self)
        self.subscribe(self.on_send, self.port)
        self.direct_entry(self.port, Message, self.on_send)

    @handles(Message)
    def on_send(self, message: Message) -> None:
        self._emulator.route(message)

    def deliver(self, message: Message) -> None:
        self.trigger(message, self.port)

    def tear_down(self) -> None:
        self._emulator.unregister(self.address)
