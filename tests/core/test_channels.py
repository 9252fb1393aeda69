"""Channel semantics: FIFO, selectors, hold/resume/plug/unplug (paper §2.1, §2.6)."""

from __future__ import annotations

import pytest

from repro import ComponentDefinition, Start, handles
from repro.core.channel import Channel
from repro.core.errors import ConnectionError as KConnectionError

from tests.kit import (
    Collector,
    EchoServer,
    Ping,
    PingPort,
    Pong,
    Scaffold,
    make_system,
    settle,
)


def _wire(system, count=3, selector=None):
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=count)
        built["channel"] = scaffold.connect(
            built["server"].provided(PingPort),
            built["client"].required(PingPort),
            selector=selector,
        )
        built["scaffold"] = scaffold

    system.bootstrap(Scaffold, build)
    return built


def test_events_flow_fifo_per_direction():
    system = make_system()
    built = _wire(system, count=10)
    settle(system)
    assert [p.n for p in built["server"].definition.pings] == list(range(10))
    assert [p.n for p in built["client"].definition.pongs] == list(range(10))
    system.shutdown()


def test_selector_drops_non_matching_events():
    system = make_system()
    built = _wire(
        system,
        count=6,
        selector=lambda event: not isinstance(event, Ping) or event.n % 2 == 0,
    )
    settle(system)
    assert [p.n for p in built["server"].definition.pings] == [0, 2, 4]
    system.shutdown()


def test_hold_queues_events_and_resume_flushes_in_order():
    system = make_system()
    built = _wire(system, count=0)
    settle(system)
    channel: Channel = built["channel"]
    client = built["client"].definition

    channel.hold()
    for n in range(5):
        client.trigger(Ping(n), client.port)
    settle(system)
    assert built["server"].definition.pings == []
    assert channel.queued == 5

    channel.resume()
    settle(system)
    assert [p.n for p in built["server"].definition.pings] == list(range(5))
    assert channel.queued == 0
    system.shutdown()


def test_unplugged_channel_queues_traffic_toward_missing_end():
    system = make_system()
    built = _wire(system, count=0)
    settle(system)
    channel: Channel = built["channel"]
    client = built["client"].definition
    server_face = built["server"].core.port(PingPort, provided=True).outside

    channel.unplug(server_face)
    client.trigger(Ping(1), client.port)
    settle(system)
    assert built["server"].definition.pings == []
    assert channel.queued == 1

    channel.plug(server_face)
    channel.resume()
    settle(system)
    assert [p.n for p in built["server"].definition.pings] == [1]
    system.shutdown()


def test_plug_into_wrong_role_is_rejected():
    system = make_system()
    built = _wire(system, count=0)
    settle(system)
    channel: Channel = built["channel"]
    client_face = built["client"].core.port(PingPort, provided=False).outside
    server_face = built["server"].core.port(PingPort, provided=True).outside

    channel.unplug(server_face)
    with pytest.raises(KConnectionError):
        channel.plug(client_face)  # negative end already plugged
    system.shutdown()


def test_resume_with_still_unplugged_end_keeps_events_queued():
    system = make_system()
    built = _wire(system, count=0)
    settle(system)
    channel: Channel = built["channel"]
    client = built["client"].definition
    server_face = built["server"].core.port(PingPort, provided=True).outside

    channel.unplug(server_face)
    client.trigger(Ping(7), client.port)
    channel.resume()  # cannot flush: destination side missing
    settle(system)
    assert channel.queued == 1
    channel.plug(server_face)
    channel.resume()
    settle(system)
    assert [p.n for p in built["server"].definition.pings] == [7]
    system.shutdown()


def test_disconnect_destroys_channel_and_stops_traffic():
    system = make_system()
    built = _wire(system, count=1)
    settle(system)
    scaffold = built["scaffold"]
    server_face = built["server"].core.port(PingPort, provided=True).outside
    client_face = built["client"].core.port(PingPort, provided=False).outside
    scaffold.disconnect(server_face, client_face)

    client = built["client"].definition
    client.trigger(Ping(99), client.port)
    settle(system)
    assert all(p.n != 99 for p in built["server"].definition.pings)
    assert built["channel"].destroyed
    system.shutdown()


def test_channel_pruning_skips_subscriberless_destinations():
    """Paper section 2.3 optimization: no forwarding without a reachable handler."""

    class DeafServer(ComponentDefinition):
        """Provides PingPort but subscribes to nothing."""

        def __init__(self):
            super().__init__()
            self.port = self.provides(PingPort)

    system = make_system()
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(DeafServer)
        built["client"] = scaffold.create(Collector, count=1)
        built["channel"] = scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    settle(system)
    assert built["server"].core.pending_events == 0
    system.shutdown()
