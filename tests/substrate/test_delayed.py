"""The delayed loopback transport (DESIGN row 26, the Fig 12 stress-test mode)."""

from __future__ import annotations

from dataclasses import dataclass

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler
from repro.network import (
    Address,
    DelayedLoopbackNetwork,
    Message,
    Network,
    local_address,
)
from repro.simulation.latency import ConstantLatency

from tests.kit import Scaffold, wait_until


@dataclass(frozen=True)
class Hello(Message):
    text: str = ""


class DelayedNode(ComponentDefinition):
    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.network = self.requires(Network)
        self.arrivals: list[tuple[float, str]] = []
        self.subscribe(self.on_hello, self.network, event_type=Hello)

    def on_hello(self, message: Hello) -> None:
        self.arrivals.append((self.now(), message.text))

    def say(self, to: Address, text: str) -> None:
        self.trigger(Hello(self.address, to, text=text), self.network)


class TestDelayedLoopback:
    def _pair(self, latency, loss_rate=0.0):
        system = ComponentSystem(
            scheduler=WorkStealingScheduler(workers=2), fault_policy="record", seed=1
        )
        built = {}

        def build(scaffold):
            for n in (1, 2):
                address = local_address(n, node_id=n)
                net = scaffold.create(
                    DelayedLoopbackNetwork, address,
                    latency=latency, loss_rate=loss_rate,
                )
                node = scaffold.create(DelayedNode, address)
                scaffold.connect(net.provided(Network), node.required(Network))
                built[n] = {"net": net.definition, "node": node.definition}

        system.bootstrap(Scaffold, build)
        return system, built

    def test_delivery_is_delayed_by_the_model(self):
        system, built = self._pair(latency=ConstantLatency(0.05))
        sender, receiver = built[1]["node"], built[2]["node"]
        send_time = sender.now()
        sender.say(receiver.address, "delayed")
        assert wait_until(lambda: len(receiver.arrivals) == 1)
        arrival_time, text = receiver.arrivals[0]
        assert text == "delayed"
        assert arrival_time - send_time >= 0.045
        system.shutdown()

    def test_loss_rate_drops_messages(self):
        system, built = self._pair(latency=ConstantLatency(0.001), loss_rate=1.0)
        built[1]["node"].say(built[2]["node"].address, "void")
        assert wait_until(lambda: built[1]["net"].lost == 1)
        import time

        time.sleep(0.05)
        assert built[2]["node"].arrivals == []
        system.shutdown()
