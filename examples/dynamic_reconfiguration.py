#!/usr/bin/env python3
"""Hot-swapping a live component (paper section 2.6).

A stateful rate-limiting echo service V1 is replaced, while traffic is
flowing, by V2 with different behaviour — using the paper's replacement
protocol: hold + unplug the channels, passivate, transfer the dumped state,
plug + resume, destroy the old instance.  No request is lost across the
swap, and the request counter carries over.

Run:  python examples/dynamic_reconfiguration.py
"""

import time
from dataclasses import dataclass

from repro import ComponentDefinition, ComponentSystem, Event, PortType, Start, handles
from repro import WorkStealingScheduler, replace_component


@dataclass(frozen=True, slots=True)
class EchoReq(Event):
    n: int


@dataclass(frozen=True, slots=True)
class EchoResp(Event):
    n: int
    text: str


class EchoPort(PortType):
    positive = (EchoResp,)
    negative = (EchoReq,)


class EchoV1(ComponentDefinition):
    """Answers in lowercase; counts requests; supports state handover."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(EchoPort)
        self.served = 0
        self.subscribe(self.on_req, self.port)

    @handles(EchoReq)
    def on_req(self, req: EchoReq) -> None:
        self.served += 1
        self.trigger(EchoResp(req.n, f"v1 echo #{self.served}"), self.port)

    def dump_state(self) -> int:
        return self.served

    def load_state(self, state) -> None:
        self.served = int(state)


class EchoV2(EchoV1):
    """The upgrade: SHOUTS, but keeps the V1 counter."""

    @handles(EchoReq)
    def on_req(self, req: EchoReq) -> None:
        self.served += 1
        self.trigger(EchoResp(req.n, f"V2 ECHO #{self.served}"), self.port)


class Client(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.requires(EchoPort)
        self.responses: list[tuple[int, str]] = []
        self.subscribe(self.on_resp, self.port)

    @handles(EchoResp)
    def on_resp(self, resp: EchoResp) -> None:
        # Copy the payload fields out instead of retaining the event;
        # bounded by the 13 requests this demo sends.
        self.responses.append((resp.n, resp.text))

    def send(self, n: int) -> None:
        self.trigger(EchoReq(n), self.port)

    def dump_state(self) -> list[tuple[int, str]]:
        return list(self.responses)

    def load_state(self, state) -> None:
        self.responses = list(state)


# Assembly root: holds child Component handles, which are the unit of
# shard placement — the root moves with its whole subtree (or not at
# all), so section-2.6 migration hooks do not apply.
class Main(ComponentDefinition):  # repro: noqa[P006]
    def __init__(self) -> None:
        super().__init__()
        self.server = self.create(EchoV1)
        self.client = self.create(Client)
        self.connect(self.server.provided(EchoPort), self.client.required(EchoPort))


def main() -> None:
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2))
    root = system.bootstrap(Main)
    main_def = root.definition
    client = main_def.client.definition

    print("sending 5 requests to V1...")
    for n in range(5):
        client.send(n)
    time.sleep(0.3)
    for _n, text in client.responses:
        print(f"  {text}")

    print("\nhot-swapping V1 -> V2 while 5 more requests are in flight...")
    for n in range(5, 10):
        client.send(n)
    new = replace_component(main_def, main_def.server, EchoV2)
    main_def.server = new
    for n in range(10, 13):
        client.send(n)
    time.sleep(0.5)

    for _n, text in client.responses[5:]:
        print(f"  {text}")
    answered = sorted(n for n, _text in client.responses)
    print(f"\nall {len(answered)} requests answered, none lost: "
          f"{answered == list(range(13))}")
    print(f"counter carried across the swap: final #{client.responses[-1][1].split('#')[1]}")
    system.shutdown()


#: Root component for aggregate wiring verification
#: (``python -m repro.analysis all --wiring-examples examples``).
WIRING_ROOT = Main


if __name__ == "__main__":
    main()
