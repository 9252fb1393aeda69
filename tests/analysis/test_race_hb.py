"""Happens-before engine: one test per edge type the tracker models."""

from __future__ import annotations

from repro.analysis.race import race_tracking
from repro.core.reconfig import replace_component

from tests.core.test_reconfig import CountingServerV1, CountingServerV2
from tests.kit import (
    Collector,
    EchoServer,
    Ping,
    PingPort,
    Scaffold,
    inject,
    make_system,
    settle,
)


def _build_pair(system, count=3):
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=count)
        built["channel"] = scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )
        built["scaffold"] = scaffold

    system.bootstrap(Scaffold, build)
    return built


def _epochs(rt, label_part, event_type=None):
    return [
        e
        for e in rt.tracker.epochs_of(event_type=event_type)
        if label_part in e.label
    ]


def test_trigger_delivery_edge_orders_sender_before_receiver():
    system = make_system()
    with race_tracking(keep_epochs=True) as rt:
        _build_pair(system)
        settle(system)
        client_start = _epochs(rt, "Collector", "Start")[0]
        server_pings = _epochs(rt, "EchoServer", "Ping")
        assert server_pings, "server never executed a Ping"
        for ping_epoch in server_pings:
            assert rt.tracker.happens_before(client_start, ping_epoch)
    system.shutdown()


def test_program_order_totally_orders_one_component():
    system = make_system()
    with race_tracking(keep_epochs=True) as rt:
        _build_pair(system, count=4)
        settle(system)
        pings = _epochs(rt, "EchoServer", "Ping")
        assert len(pings) == 4
        for earlier, later in zip(pings, pings[1:]):
            assert rt.tracker.happens_before(earlier, later)
            assert not rt.tracker.happens_before(later, earlier)
    system.shutdown()


def test_lifecycle_start_edge_orders_parent_before_child():
    system = make_system()
    with race_tracking(keep_epochs=True) as rt:
        _build_pair(system)
        settle(system)
        scaffold_start = _epochs(rt, "Scaffold", "Start")[0]
        child_starts = _epochs(rt, "EchoServer", "Start")
        child_starts += _epochs(rt, "Collector", "Start")
        assert len(child_starts) == 2
        for child in child_starts:
            assert rt.tracker.happens_before(scaffold_start, child)
    system.shutdown()


def test_fanout_deliveries_are_concurrent():
    """Two subscribers of one event have no order between them."""
    system = make_system()
    built = {}

    def build(scaffold):
        built["a"] = scaffold.create(EchoServer, name="server-a")
        built["b"] = scaffold.create(EchoServer, name="server-b")
        client = scaffold.create(Collector, count=1)
        scaffold.connect(built["a"].provided(PingPort), client.required(PingPort))
        scaffold.connect(built["b"].provided(PingPort), client.required(PingPort))

    with race_tracking(keep_epochs=True) as rt:
        system.bootstrap(Scaffold, build)
        settle(system)
        ping_a = _epochs(rt, "server-a", "Ping")[0]
        ping_b = _epochs(rt, "server-b", "Ping")[0]
        assert rt.tracker.concurrent(ping_a, ping_b)
    system.shutdown()


def test_channel_hold_resume_edge():
    """Events flushed by resume() happen-after the resume call."""
    system = make_system()
    with race_tracking(keep_epochs=True) as rt:
        built = _build_pair(system, count=1)
        settle(system)
        channel = built["channel"]
        channel.hold()
        before = len(_epochs(rt, "EchoServer", "Ping"))
        client = built["client"].definition
        client.trigger(Ping(77), client.port)
        settle(system)
        # Held channel: the ping is queued, not delivered.
        assert len(_epochs(rt, "EchoServer", "Ping")) == before
        resume_point = rt.tracker.ambient_epoch("resume")
        channel.resume()
        settle(system)
        pings = _epochs(rt, "EchoServer", "Ping")
        assert len(pings) == before + 1
        assert rt.tracker.happens_before(resume_point, pings[-1])
    system.shutdown()


def test_channel_unplug_plug_edge():
    """Events released by plug() happen-after the plug call."""
    system = make_system()
    with race_tracking(keep_epochs=True) as rt:
        built = _build_pair(system, count=1)
        settle(system)
        channel = built["channel"]
        server_face = channel.positive_end
        channel.unplug(server_face)
        before = len(_epochs(rt, "EchoServer", "Ping"))
        client = built["client"].definition
        client.trigger(Ping(88), client.port)
        settle(system)
        assert len(_epochs(rt, "EchoServer", "Ping")) == before
        plug_point = rt.tracker.ambient_epoch("plug")
        channel.plug(server_face)
        channel.resume()  # plug only re-attaches; resume flushes the queue
        settle(system)
        pings = _epochs(rt, "EchoServer", "Ping")
        assert len(pings) == before + 1
        assert rt.tracker.happens_before(plug_point, pings[-1])
    system.shutdown()


def test_reconfig_state_transfer_edge():
    """Everything the old component did precedes the replacement's epochs."""
    system = make_system()
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(CountingServerV1)
        built["client"] = scaffold.create(Collector, count=2)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )
        built["scaffold"] = scaffold

    with race_tracking(keep_epochs=True) as rt:
        system.bootstrap(Scaffold, build)
        settle(system)
        old_pings = _epochs(rt, "CountingServerV1", "Ping")
        assert len(old_pings) == 2
        replace_component(built["scaffold"], built["server"], CountingServerV2)
        settle(system)
        client = built["client"].definition
        client.trigger(Ping(9), client.port)
        settle(system)
        new_epochs = _epochs(rt, "CountingServerV2")
        assert new_epochs, "replacement never executed"
        for old in old_pings:
            for new in new_epochs:
                assert rt.tracker.happens_before(old, new)
    system.shutdown()


def test_uninstall_clears_every_hook():
    from repro.core import observe

    with race_tracking() as rt:
        assert observe.observer is rt
    assert observe.observer is None
