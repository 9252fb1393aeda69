"""Compiled dispatch plans: compilation, caching, invalidation, queue-stops."""

from __future__ import annotations

from repro import ComponentDefinition, Direction, Start
from repro.core import dispatch, routing
from repro.simulation import Simulation

from tests.reference.walker import faces_of
from tests.kit import (
    Collector,
    EchoServer,
    FancyPing,
    Ping,
    PingPort,
    Pong,
    Scaffold,
    make_system,
    settle,
)


class DeafClient(ComponentDefinition):
    """Requires PingPort but subscribes to nothing."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.requires(PingPort)


class Wrapper(ComponentDefinition):
    """Provides PingPort, delegating to a nested EchoServer ``depth`` deep."""

    def __init__(self, depth: int = 0) -> None:
        super().__init__()
        self.port = self.provides(PingPort)
        if depth > 0:
            self.inner = self.create(Wrapper, depth - 1)
        else:
            self.inner = self.create(EchoServer)
        self.connect(self.port, self.inner.provided(PingPort))


def build(system, builder):
    built = {}

    def wire(scaffold):
        built["root"] = scaffold
        builder(scaffold, built)

    system.bootstrap(Scaffold, wire)
    settle(system)
    return built


def echo_pair(system):
    def wire(scaffold, built):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=0)
        built["channel"] = scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    return build(system, wire)


# ---------------------------------------------------------------- compilation


def test_plan_flattens_request_path_to_single_delivery():
    system = make_system()
    built = echo_pair(system)
    client_face = built["client"].definition.port  # required/inside
    plan = routing.plan_for(client_face, Ping, Direction.NEGATIVE)
    server_core = built["server"].core
    assert plan.delivery_targets() == [
        (server_core, server_core.port(PingPort, True).inside)
    ]
    assert plan.live_channels() == []
    # The face the plan delivers at records the plan's root as its reader.
    assert server_core.port(PingPort, True).inside._readers is client_face


def test_plan_flattens_deep_delegation_chain():
    system = make_system()

    def wire(scaffold, built):
        built["wrap"] = scaffold.create(Wrapper, depth=4)
        built["client"] = scaffold.create(Collector, count=3)
        scaffold.connect(
            built["wrap"].provided(PingPort), built["client"].required(PingPort)
        )

    built = build(system, wire)
    client_face = built["client"].definition.port
    plan = routing.plan_for(client_face, Ping, Direction.NEGATIVE)
    # Five wrappers deep, the plan is still one direct delivery to the leaf.
    targets = plan.delivery_targets()
    assert len(targets) == 1
    assert type(targets[0][0].definition).__name__ == "EchoServer"
    settle(system)
    assert [pong.n for pong in built["client"].definition.pongs] == [0, 1, 2]


def test_empty_plan_is_compiled_pruning():
    system = make_system()

    def wire(scaffold, built):
        built["server"] = scaffold.create(EchoServer)
        for i in range(8):
            deaf = scaffold.create(DeafClient)
            built[f"deaf{i}"] = deaf
            scaffold.connect(built["server"].provided(PingPort), deaf.required(PingPort))

    built = build(system, wire)
    server_inside = built["server"].core.port(PingPort, True).inside
    plan = routing.plan_for(server_inside, Pong, Direction.POSITIVE)
    # Nobody subscribes to Pong: the whole fan-out compiles away (the
    # paper's §2.3 pruning), at the source and behind every channel.
    assert plan.steps == () and plan.deliveries == ()
    for i in range(8):
        deaf_outside = built[f"deaf{i}"].required(PingPort)
        behind = routing.compile_plan(deaf_outside, Pong, Direction.POSITIVE)
        assert behind.steps == () and behind.deliveries == ()


def test_plan_preserves_subtype_matching():
    system = make_system()
    built = echo_pair(system)
    client = built["client"].definition
    client.trigger(FancyPing(7), client.port)
    settle(system)
    assert [ping.n for ping in built["server"].definition.pings] == [7]


# ------------------------------------------------------------------- caching


def test_plan_cache_hits_until_invalidated():
    system = make_system()
    built = echo_pair(system)
    face = built["client"].definition.port
    first = routing.plan_for(face, Ping, Direction.NEGATIVE)
    assert routing.plan_for(face, Ping, Direction.NEGATIVE) is first
    assert first in list(routing.cached_plans(face))


def test_every_reconfiguration_command_invalidates_plans():
    system = make_system()

    def wire(scaffold, built):
        for prefix in ("", "other_"):
            built[prefix + "server"] = scaffold.create(EchoServer)
            built[prefix + "client"] = scaffold.create(Collector, count=0)
            built[prefix + "channel"] = scaffold.connect(
                built[prefix + "server"].provided(PingPort),
                built[prefix + "client"].required(PingPort),
            )

    built = build(system, wire)
    root = built["root"]
    client = built["client"].definition
    channel = built["channel"]
    face = client.port
    other_face = built["other_client"].definition.port
    unrelated = routing.plan_for(other_face, Ping, Direction.NEGATIVE)

    def fresh_plan_after(op):
        before = routing.plan_for(face, Ping, Direction.NEGATIVE)
        op()
        after = routing.plan_for(face, Ping, Direction.NEGATIVE)
        assert after is not before, f"{op.__name__} did not invalidate plans"
        # ... and the route through the other pair is not even recompiled.
        assert routing.plan_for(other_face, Ping, Direction.NEGATIVE) is unrelated
        return after

    fresh_plan_after(lambda: client.subscribe(client.on_pong, client.port))
    fresh_plan_after(lambda: client.unsubscribe(client.on_pong, client.port))
    server = built["server"].definition
    fresh_plan_after(lambda: server.subscribe(server.on_ping, server.port))
    fresh_plan_after(lambda: server.unsubscribe(server.on_ping, server.port))
    held = fresh_plan_after(channel.hold)
    assert held.live_channels() == [channel]
    resumed = fresh_plan_after(channel.resume)
    assert resumed.live_channels() == []
    unplugged = fresh_plan_after(
        lambda: channel.unplug(built["server"].provided(PingPort))
    )
    assert unplugged.live_channels() == [channel]
    fresh_plan_after(lambda: channel.plug(built["server"].provided(PingPort)))
    fresh_plan_after(
        lambda: root.disconnect(
            built["server"].provided(PingPort), client.core.port(PingPort, False).outside
        )
    )
    fresh_plan_after(
        lambda: root.connect(
            built["server"].provided(PingPort), client.core.port(PingPort, False).outside
        )
    )
    fresh_plan_after(lambda: built["server"].core.destroy())
    # Creating a component connects nothing, so it invalidates nothing.
    before = routing.plan_for(face, Ping, Direction.NEGATIVE)
    root.create(DeafClient)
    assert routing.plan_for(face, Ping, Direction.NEGATIVE) is before


# -------------------------------------------------- queue-stop reconfiguration


def test_held_channel_compiles_to_queue_stop():
    system = make_system()
    built = echo_pair(system)
    client, channel = built["client"].definition, built["channel"]
    channel.hold()
    plan = routing.plan_for(client.port, Ping, Direction.NEGATIVE)
    assert plan.delivery_targets() == []
    assert plan.live_channels() == [channel]

    client.trigger(Ping(1), client.port)
    client.trigger(Ping(2), client.port)
    settle(system)
    assert channel.queued == 2
    assert built["server"].definition.pings == []

    channel.resume()
    settle(system)
    # §2.6: no triggered event is ever dropped, and FIFO order survives.
    assert [ping.n for ping in built["server"].definition.pings] == [1, 2]
    assert channel.queued == 0


def test_unplugged_channel_queues_then_replugs_to_new_provider():
    system = make_system()
    built = echo_pair(system)
    root, client, channel = built["root"], built["client"].definition, built["channel"]
    channel.hold()
    channel.unplug(built["server"].provided(PingPort))
    client.trigger(Ping(9), client.port)
    settle(system)
    assert channel.queued == 1

    replacement = root.create(EchoServer)
    root.start_child(replacement)
    channel.plug(replacement.provided(PingPort))
    channel.resume()
    settle(system)
    assert [ping.n for ping in replacement.definition.pings] == [9]
    assert built["server"].definition.pings == []


def test_selector_channels_stay_live_steps():
    system = make_system()

    def wire(scaffold, built):
        built["server"] = scaffold.create(EchoServer)
        built["even"] = scaffold.create(Collector, count=0)
        built["odd"] = scaffold.create(Collector, count=0)
        scaffold.connect(
            built["server"].provided(PingPort),
            built["even"].required(PingPort),
            selector=lambda event: getattr(event, "n", 0) % 2 == 0,
        )
        scaffold.connect(
            built["server"].provided(PingPort),
            built["odd"].required(PingPort),
            selector=lambda event: getattr(event, "n", 0) % 2 == 1,
        )

    built = build(system, wire)
    server_inside = built["server"].core.port(PingPort, True).inside
    plan = routing.plan_for(server_inside, Pong, Direction.POSITIVE)
    assert plan.delivery_targets() == []
    assert len(plan.live_channels()) == 2

    server = built["server"].definition
    for n in range(4):
        server.trigger(Pong(n), server.port)
    settle(system)
    assert [pong.n for pong in built["even"].definition.pongs] == [0, 2]
    assert [pong.n for pong in built["odd"].definition.pongs] == [1, 3]


# ------------------------------------------------------------- cache hygiene


def test_face_plan_tables_reset_when_a_face_they_read_changes():
    system = make_system()
    built = echo_pair(system)
    face = built["client"].definition.port
    subtypes = [type(f"PingVariant{i}", (Ping,), {}) for i in range(16)]
    for subtype in subtypes:
        routing.plan_for(face, subtype, Direction.NEGATIVE)
    assert len(list(routing.cached_plans(face))) == 16
    # The whole table goes, not just the entries of the type subscribed:
    # entries for event types that never recur cannot accumulate.
    server = built["server"].definition
    server.subscribe(server.on_ping, server.port)
    routing.plan_for(face, Ping, Direction.NEGATIVE)
    assert len(list(routing.cached_plans(face))) == 1


def test_trigger_at_a_destroyed_components_face_reaches_nobody():
    """A handler still on the stack or a timer callback may trigger at a
    component after its destruction; its routes went with it."""
    system = make_system()

    def wire(scaffold, built):
        built["wrap"] = scaffold.create(Wrapper, depth=1)
        built["client"] = scaffold.create(Collector, count=1)
        built["channel"] = scaffold.connect(
            built["wrap"].provided(PingPort), built["client"].required(PingPort)
        )

    built = build(system, wire)
    wrap, client = built["wrap"], built["client"].definition
    assert [pong.n for pong in client.pongs] == [0]  # both directions compiled
    inner = wrap.definition.inner
    doomed = [wrap.core, inner.core, inner.definition.inner.core]
    faces = [face for core in doomed for face in faces_of(core)]
    built["root"].destroy(wrap)
    assert all(face._plans is None and face._readers is None for face in faces)
    for face in faces:
        kind = face.port.port_type
        events = (Ping(1), Pong(1)) if kind is PingPort else (Start(),)
        for event in events:
            if kind.allowed(face.trigger_direction, type(event)):
                dispatch.trigger(event, face)
    settle(system)
    assert [pong.n for pong in client.pongs] == [0]
    assert built["channel"].queued == 0
    assert all(core.pending_events == 0 for core in doomed)


def test_reader_records_stay_bounded_under_client_churn():
    """1,000 clients come and go at one long-lived provider: what the
    provider's faces remember about them must not grow with the count."""
    system = make_system()
    built = build(system, lambda scaffold, built: built.update(
        server=scaffold.create(EchoServer)))
    root, server = built["root"], built["server"]
    root.start_child(server)
    port = server.core.port(PingPort, True)
    high_water = 0
    for n in range(1000):
        client = root.create(Collector, count=1)
        root.connect(server.provided(PingPort), client.required(PingPort))
        root.start_child(client)
        settle(system)
        assert [pong.n for pong in client.definition.pongs] == [0]
        root.destroy(client)
        for face in (port.inside, port.outside):
            readers = face._readers
            recorded = len(readers) if type(readers) is list else readers is not None
            high_water = max(high_water, recorded, len(list(routing.cached_plans(face))))
    assert high_water <= 2
    assert len(server.definition.pings) == 1000


# --------------------------------------------------------------- integration


def test_duplicate_subscriptions_of_one_owner_deliver_once():
    system = make_system()
    built = echo_pair(system)
    client = built["client"].definition
    client.subscribe(client.on_pong, client.port)  # second subscription
    client.trigger(Ping(5), client.port)
    settle(system)
    # One work item per (owner, face), but both matched handlers run.
    assert [pong.n for pong in client.pongs] == [5, 5]


def test_single_subscription_fast_path_respects_type_mismatch():
    system = make_system()
    built = echo_pair(system)
    server = built["server"].definition
    server.trigger(Pong(3), server.port)  # client subscribes Pong only
    settle(system)
    assert [pong.n for pong in built["client"].definition.pongs] == [3]
    assert built["server"].definition.pings == []


def test_simulation_runs_on_compiled_plans():
    sim = Simulation(seed=3)
    built = {}

    def wire(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=2)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    sim.bootstrap(Scaffold, wire)
    assert sim.run() == "quiescent"
    assert [pong.n for pong in built["client"].definition.pongs] == [0, 1]
    client_face = built["client"].definition.port
    assert list(routing.cached_plans(client_face))  # plans were compiled


def test_control_events_route_through_plans():
    system = make_system()
    built = echo_pair(system)
    child = built["root"].create(Collector, count=0)
    built["root"].start_child(child)
    settle(system)
    control_outside = child.control()
    assert list(routing.cached_plans(control_outside))
    plans = {plan.event_type for plan in routing.cached_plans(control_outside)}
    assert Start in plans
