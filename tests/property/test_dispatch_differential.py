"""Differential test: compiled dispatch plans vs the reference walker.

A deterministic op sequence grows arbitrary hierarchies (flat components,
delegation chains), rewires them with the full reconfiguration vocabulary
(connect/disconnect, hold/resume, plug/unplug, subscribe/unsubscribe,
destroy) and triggers events at random faces throughout.  The oracle is
the side-effect-free recursive walk of ``tests/reference/walker.py``, which
re-derives every route from the live topology.  Three comparisons:

- after **every op** that touches the topology, for every face the ops can
  trigger on and for **every plan cached on every face of every live
  component**, with both selector outcomes, the cached plan — expanded
  through its live steps the way ``Channel.forward`` continues them —
  lists the walker's deliveries and queue-stops, in the walker's order (a
  plan that survived a topology change it should not have shows up here,
  also on a face nobody happens to trigger on again);
- every **trigger**, the harness's and every handler's, makes exactly the
  ``ComponentCore.receive_event`` calls the walker lists, in order, and
  queues the event on exactly the channels the walker stops at;
- every **resume** flushes its queue into exactly the deliveries the walker
  lists for the queued events.

Plans are invalidated per face, so the converse is checked too: in a
forest of disjoint groups, ops confined to one group leave every cached
plan object of the other groups untouched (``is``), and a provider shared
by a fan-out of clients behind a three-deep delegation chain is rewired
under the same three comparisons.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager

from repro import ComponentDefinition, ComponentSystem, Direction, ManualScheduler
from repro.core import dispatch, routing
from repro.core.component import ComponentCore

from tests.kit import Collector, EchoServer, FancyPing, Ping, PingPort, Pong, Scaffold
from tests.reference.walker import check_cached_plans, faces_of, replay_plan, walk

CASES = 500
OPS_PER_CASE = 28


class DeafClient(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.requires(PingPort)


class Wrapper(ComponentDefinition):
    """Provides PingPort through ``depth`` levels of delegation."""

    def __init__(self, depth: int = 0) -> None:
        super().__init__()
        self.port = self.provides(PingPort)
        if depth > 0:
            self.inner = self.create(Wrapper, depth - 1)
        else:
            self.inner = self.create(EchoServer)
        self.connect(self.port, self.inner.provided(PingPort))


KINDS = {
    "echo": (EchoServer, ()),
    "sink": (Collector, (0,)),
    "deaf": (DeafClient, ()),
    "wrap1": (Wrapper, (1,)),
    "wrap3": (Wrapper, (3,)),
}
PROVIDER_KINDS = ("echo", "wrap1", "wrap3")
REQUIRER_KINDS = ("sink", "deaf")


def even_selector(event) -> bool:
    return getattr(event, "n", 0) % 2 == 0


class Recorder:
    """Checks every trigger and resume against the walker while installed."""

    def __init__(self) -> None:
        self.delivered: list[tuple] = []
        self.channels: list = []  # the World's, for queue-growth accounting

    def queued(self) -> Counter:
        return Counter({c: c.queued for c in self.channels if c.queued})

    def check(self, expected: list[tuple], act, flushed=Counter()) -> None:
        """``act()`` delivers and queues what ``expected`` lists, no more."""
        mark, queued = len(self.delivered), self.queued()
        act()
        assert self.delivered[mark:] == [step[1:] for step in expected if step[0] == "deliver"]
        stops = Counter(step[1] for step in expected if step[0] == "queue")
        assert self.queued() == queued - flushed + stops

    def trigger(self, event, face) -> None:
        expected = list(walk(face, event, face.trigger_direction))
        self.check(expected, lambda: dispatch.trigger(event, face))

    def resume(self, channel) -> None:
        expected, flushed = [], Counter()
        for event, direction in tuple(channel._queue or ()):
            destination = (
                channel.negative_end if direction is Direction.POSITIVE else channel.positive_end
            )
            if destination is None:
                break  # still unplugged on that side: the rest stays queued
            flushed[channel] += 1
            expected.extend(walk(destination, event, direction))
        self.check(expected, channel.resume, flushed)

    @contextmanager
    def installed(self):
        """Route every handler's ``self.trigger`` through :meth:`trigger` and
        log every ``receive_event`` (plans prebind it at compile time, so
        install before the system is built)."""
        receive = ComponentCore.receive_event
        trigger = ComponentDefinition.__dict__["trigger"]  # the staticmethod object
        delivered = self.delivered

        def recording(core, event, face):
            delivered.append((core, face))
            receive(core, event, face)

        ComponentCore.receive_event = recording
        ComponentDefinition.trigger = staticmethod(self.trigger)
        try:
            yield self
        finally:
            ComponentCore.receive_event = receive
            ComponentDefinition.trigger = trigger


class World:
    """One system plus an index of its components and channels by creation order."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.system = ComponentSystem(
            scheduler=ManualScheduler(), fault_policy="raise", seed=11, name="compiled"
        )
        built = {}
        self.system.bootstrap(Scaffold, lambda scaffold: built.update(root=scaffold))
        self.root: Scaffold = built["root"]
        self.components: list[tuple[object, str]] = []  # (facade, kind)
        self.channels: list[object] = recorder.channels
        #: Forest cases: the group new components and channels join, and
        #: the only group the picks of an op can land in.
        self.group = 0
        self.groups: dict[object, int] = {}  # core or channel -> its group

    def alive(self, kind_filter=None):
        return [
            (i, facade, kind)
            for i, (facade, kind) in enumerate(self.components)
            if facade.core.state.value != "destroyed"
            and self.groups[facade.core] == self.group
            and (kind_filter is None or kind in kind_filter)
        ]

    def op_create(self, kind: str) -> None:
        cls, args = KINDS[kind]
        facade = self.root.create(cls, *args)
        self.components.append((facade, kind))
        self.groups[facade.core] = self.group
        self.root.start_child(facade)

    def op_connect(self, provider_pick: int, requirer_pick: int, with_selector: bool) -> None:
        providers = self.alive(PROVIDER_KINDS)
        requirers = self.alive(REQUIRER_KINDS)
        if not providers or not requirers:
            return
        _, provider, _ = providers[provider_pick % len(providers)]
        _, requirer, _ = requirers[requirer_pick % len(requirers)]
        channel = self.root.connect(
            provider.provided(PingPort),
            requirer.required(PingPort),
            selector=even_selector if with_selector else None,
        )
        self.channels.append(channel)
        self.groups[channel] = self.group

    def pick_channel(self, pick: int):
        live = [
            c for c in self.channels if not c.destroyed and self.groups[c] == self.group
        ]
        if not live:
            return None
        return live[pick % len(live)]

    def op_hold(self, pick: int) -> None:
        channel = self.pick_channel(pick)
        if channel is not None and not channel.held:
            channel.hold()

    def op_resume(self, pick: int) -> None:
        channel = self.pick_channel(pick)
        if channel is not None and channel.held:
            self.recorder.resume(channel)

    def op_unplug(self, pick: int, side: int) -> None:
        channel = self.pick_channel(pick)
        if channel is None:
            return
        end = channel.positive_end if side else channel.negative_end
        if end is not None:
            channel.unplug(end)

    def op_plug(self, pick: int, component_pick: int) -> None:
        channel = self.pick_channel(pick)
        if channel is None:
            return
        if channel.positive_end is None:
            pool = self.alive(PROVIDER_KINDS)
            if not pool:
                return
            _, facade, _ = pool[component_pick % len(pool)]
            channel.plug(facade.provided(PingPort))
        elif channel.negative_end is None:
            pool = self.alive(REQUIRER_KINDS)
            if not pool:
                return
            _, facade, _ = pool[component_pick % len(pool)]
            channel.plug(facade.required(PingPort))

    def op_destroy_channel(self, pick: int) -> None:
        channel = self.pick_channel(pick)
        if channel is not None:
            channel.destroy()

    def op_subscribe_extra(self, pick: int) -> None:
        sinks = self.alive(("sink",))
        if not sinks:
            return
        _, facade, _ = sinks[pick % len(sinks)]
        definition = facade.definition
        definition.subscribe(definition.on_pong, definition.port)

    def op_unsubscribe_extra(self, pick: int) -> None:
        sinks = self.alive(("sink",))
        if not sinks:
            return
        _, facade, _ = sinks[pick % len(sinks)]
        definition = facade.definition
        if len(definition.port.subscriptions) > 1:
            definition.unsubscribe(definition.on_pong, definition.port)

    def op_destroy_component(self, pick: int) -> None:
        live = self.alive()
        if len(live) <= 1:
            return
        _, facade, _ = live[pick % len(live)]
        self.root.destroy(facade)

    def op_trigger(self, pick: int, flavour: int, n: int) -> None:
        live = self.alive()
        if not live:
            return
        _, facade, kind = live[pick % len(live)]
        if kind in REQUIRER_KINDS:
            event = FancyPing(n) if flavour % 3 == 0 else Ping(n)
            definition = facade.definition
            definition.trigger(event, definition.port)
        elif kind == "echo":
            definition = facade.definition
            definition.trigger(Pong(n), definition.port)
        else:  # wrapper: push a request in from the parent side
            self.recorder.trigger(Ping(n), facade.provided(PingPort))

    def op_settle(self) -> None:
        self.system.await_quiescence()

    def check_plans(self) -> None:
        """Cached plans vs the walker, at every face an op can trigger on."""
        for _, facade, kind in self.alive():
            if kind in REQUIRER_KINDS:
                face, events = facade.definition.port, (Ping(0), FancyPing(1))
            elif kind == "echo":
                face, events = facade.definition.port, (Pong(0), Pong(1))
            else:
                face, events = facade.provided(PingPort), (Ping(0), FancyPing(1))
            direction = face.trigger_direction
            for event in events:
                assert list(replay_plan(face, event, direction)) == list(
                    walk(face, event, direction)
                ), (kind, event)
        # ... and every plan anybody left cached anywhere: nested cores,
        # control ports, faces only ever reached through a channel.
        check_cached_plans(self.system)

    def cached_plans(self, group: int):
        """``(face, plan)`` for every plan cached under ``group``'s components."""
        for core in self.system.components:
            if self.group_of(core) == group:
                for face in faces_of(core):
                    for plan in routing.cached_plans(face):
                        yield face, plan

    def group_of(self, core):
        while core not in self.groups and core.parent is not None:
            core = core.parent  # nested in a wrapper: its top-level ancestor's
        return self.groups.get(core)  # None: the root scaffold


def make_ops(seed: int, prologue=None):
    rng = random.Random(seed)
    if prologue is not None:
        ops = list(prologue)
    else:
        ops = [("create", rng.choice(PROVIDER_KINDS)), ("create", rng.choice(REQUIRER_KINDS))]
        ops.append(("connect", rng.randrange(8), rng.randrange(8), False))
    weights = [
        ("create", 3),
        ("connect", 4),
        ("hold", 2),
        ("resume", 2),
        ("unplug", 2),
        ("plug", 2),
        ("destroy_channel", 1),
        ("subscribe_extra", 1),
        ("unsubscribe_extra", 1),
        ("destroy_component", 1),
        ("trigger", 10),
        ("settle", 3),
    ]
    names = [name for name, weight in weights for _ in range(weight)]
    for _ in range(OPS_PER_CASE):
        name = rng.choice(names)
        if name == "create":
            ops.append(("create", rng.choice(list(KINDS))))
        elif name == "connect":
            ops.append(("connect", rng.randrange(8), rng.randrange(8), rng.random() < 0.3))
        elif name in ("hold", "resume", "destroy_channel"):
            ops.append((name, rng.randrange(8)))
        elif name == "unplug":
            ops.append((name, rng.randrange(8), rng.randrange(2)))
        elif name == "plug":
            ops.append((name, rng.randrange(8), rng.randrange(8)))
        elif name in ("subscribe_extra", "unsubscribe_extra", "destroy_component"):
            ops.append((name, rng.randrange(8)))
        elif name == "trigger":
            ops.append((name, rng.randrange(8), rng.randrange(6), rng.randrange(100)))
        else:
            ops.append(("settle",))
    ops.append(("settle",))
    return ops


def run_ops(world: World, ops, after_op=lambda: None) -> None:
    for op in ops:
        getattr(world, f"op_{op[0]}")(*op[1:])
        if op[0] not in ("trigger", "settle"):  # those leave the topology alone
            world.check_plans()
        after_op()


def run_case(seed: int, prologue=None) -> int:
    recorder = Recorder()
    with recorder.installed():
        world = World(recorder)
        run_ops(world, make_ops(seed, prologue))
    world.system.scheduler.shutdown(wait=False)
    return len(recorder.delivered)


#: One provider three delegations deep, five clients fanned out from it
#: (one behind a selector, one deaf), everybody triggered once.
FANOUT_PROLOGUE = (
    ("create", "wrap3"),
    *(("create", kind) for kind in ("sink", "sink", "deaf", "sink", "sink")),
    *(("connect", 0, n, n == 1) for n in range(5)),
    *(("trigger", n, 1, n) for n in range(6)),
    ("settle",),
)


def run_forest_case(seed: int) -> int:
    """Disjoint groups; the seeded ops stay inside one, and every plan
    object cached in the others must come through untouched."""
    rng = random.Random(-seed)
    recorder = Recorder()
    with recorder.installed():
        world = World(recorder)
        groups = range(3 + seed % 2)
        for world.group in groups:
            run_ops(
                world,
                [
                    ("create", rng.choice(PROVIDER_KINDS)),
                    ("create", "sink"),
                    ("create", rng.choice(REQUIRER_KINDS)),
                    ("connect", 0, 0, False),
                    ("connect", 0, 1, rng.random() < 0.3),
                    *(("trigger", n, 1, n) for n in range(3)),
                    ("settle",),
                ],
            )
        world.group = rng.choice(groups)
        bystanders = [
            (face, plan)
            for group in groups
            if group != world.group
            for face, plan in world.cached_plans(group)
        ]
        assert len(bystanders) >= 2 * (len(groups) - 1)

        def bystanders_untouched():
            for face, plan in bystanders:
                assert face._plans[plan.event_type, plan.direction] is plan, (face, plan)

        run_ops(world, make_ops(seed, prologue=()), bystanders_untouched)
    world.system.scheduler.shutdown(wait=False)
    return len(recorder.delivered)


def test_differential_smoke_case_delivers_something():
    assert run_case(0) > 0


def test_differential_randomized_topologies_with_reconfiguration():
    """500 randomized hierarchies with reconfiguration interleaved."""
    total = 0
    for seed in range(1, CASES + 1):
        total += run_case(seed)
    # Sanity: the harness must actually exercise dissemination, not settle
    # on degenerate empty topologies.
    assert total > 10 * CASES


def test_differential_shared_provider_fanout_behind_delegation_chain():
    total = sum(run_case(seed, FANOUT_PROLOGUE) for seed in range(1, 61))
    assert total > 10 * 60


def test_differential_forest_ops_leave_other_groups_plans_alone():
    total = sum(run_forest_case(seed) for seed in range(1, 61))
    assert total > 10 * 60
