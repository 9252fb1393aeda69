"""Built-in scenarios for the race analysis CLI and its test suite.

A scenario is ``scenario(sim) -> check | None``: it builds components
inside the provided :class:`~repro.simulation.core.Simulation` (and may
schedule driver actions on the virtual clock); the optional returned
``check()`` runs after the simulation and raises on application-level
failure.  Each fixture demonstrates one analysis mode:

===================  =========================================================
``clean``            request/response pipeline with share-nothing state —
                     zero findings under every mode
``racy``             one mutable list fanned out inside an event to two
                     subscribers that both mutate it — R001
``order-bug``        deposit/withdraw scheduled at the same virtual
                     timestamp; FIFO passes, the swap faults — R003 via
                     ``--explore``, then ``--replay``
``nondet``           handler branches on the process-global RNG — R002
``nondet-clock``     delay derived from the wall clock — R002 (time drift)
``cats-churn``       CATS cluster under same-timestamp churn + workload,
                     checked linearizable (exploration target)
``abd``              concurrent ABD puts/gets on one key, checked
                     linearizable (exploration target)
===================  =========================================================

Not imported by ``repro.analysis.race`` itself: the CATS fixtures pull in
the full store stack, which analysis users should not pay for.  The CLI
and tests import this module directly; third-party scenarios are
addressed as ``module:function`` specs (see :func:`resolve_scenario`).
"""

from __future__ import annotations

import importlib
import random as _global_random
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ...core import dispatch as _dispatch
from ...core.component import ComponentDefinition
from ...core.event import Event
from ...core.handler import handles
from ...core.lifecycle import Start
from ...core.port import PortType
from ...simulation.core import Simulation


class _Root(ComponentDefinition):
    """A bootstrap root whose children/wiring are supplied by the scenario."""

    def __init__(self, builder: Callable[["_Root"], None]) -> None:
        super().__init__()
        builder(self)


def _inject(definition: ComponentDefinition, port_type, event, provided=True) -> None:
    """Trigger an event into a component's port from a scheduled action."""
    core = definition.core
    _dispatch.trigger(event, core.port(port_type, provided=provided).outside)


# --------------------------------------------------------------------- events


@dataclass(frozen=True, slots=True)
class Ask(Event):
    n: int = 0


@dataclass(frozen=True, slots=True)
class Reply(Event):
    n: int = 0


@dataclass(frozen=True, slots=True)
class Job(Event):
    #: deliberately mutable: fan-out aliases this one list to every subscriber
    results: list = field(default_factory=list)  # repro: noqa[M006]


@dataclass(frozen=True, slots=True)
class Deposit(Event):
    amount: int = 0


@dataclass(frozen=True, slots=True)
class Withdraw(Event):
    amount: int = 0


@dataclass(frozen=True, slots=True)
class Coin(Event):
    heads: bool = False


class RelayPort(PortType):
    positive = (Reply,)
    negative = (Ask,)


class WorkPort(PortType):
    positive = ()
    negative = (Job,)


class BankPort(PortType):
    positive = ()
    negative = (Deposit, Withdraw)


class CoinPort(PortType):
    positive = ()
    negative = (Coin,)


# ------------------------------------------------------------ clean pipeline


class _EchoServer(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(RelayPort)
        self.served = 0
        self.subscribe(self.on_request, self.port)

    @handles(Ask)
    def on_request(self, request: Ask) -> None:
        self.served += 1
        self.trigger(Reply(request.n), self.port)


# Deterministic race-fixture scaffolding, confined to one simulation
# process; never a shard-migration candidate.
class _EchoClient(ComponentDefinition):  # repro: noqa[P006]
    def __init__(self, count: int = 5) -> None:
        super().__init__()
        self.port = self.requires(RelayPort)
        self.count = count
        self.responses: list[int] = []
        self.subscribe(self.on_start, self.control)
        self.subscribe(self.on_response, self.port)

    @handles(Start)
    def on_start(self, _event: Start) -> None:
        for n in range(self.count):
            self.trigger(Ask(n), self.port)

    @handles(Reply)
    def on_response(self, response: Reply) -> None:
        # Bounded by ``count`` Asks sent at Start; fixture-scoped.
        self.responses.append(response.n)  # repro: noqa[M002]


def clean_pipeline(sim: Simulation):
    """Share-nothing request/response: no findings under any mode."""
    built = {}

    def build(root: _Root) -> None:
        server = root.create(_EchoServer)
        client = root.create(_EchoClient, count=5)
        root.connect(server.provided(RelayPort), client.required(RelayPort))
        built["client"] = client.definition

    sim.bootstrap(_Root, build)

    def check() -> None:
        client = built["client"]
        if sorted(client.responses) != list(range(client.count)):
            raise AssertionError(f"lost responses: {client.responses}")

    return check


# ---------------------------------------------------------- racy shared list


class _JobProducer(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.out = self.requires(WorkPort)
        self.subscribe(self.on_start, self.control)

    @handles(Start)
    def on_start(self, _event: Start) -> None:
        # One Job object fans out to every connected worker: its ``results``
        # list becomes shared mutable state with no ordering between them.
        self.trigger(Job(results=[]), self.out)


class _JobWorker(ComponentDefinition):
    def __init__(self, tag: str) -> None:
        super().__init__()
        self.port = self.provides(WorkPort)
        self.tag = tag
        self.subscribe(self.on_job, self.port)

    @handles(Job)
    def on_job(self, job: Job) -> None:
        # The race on display, suppressed from the lint gate so the runtime
        # detector (R001) gets to find it.
        job.results.append(self.tag)  # repro: noqa[A001]


def racy_shared_list(sim: Simulation):
    """Two subscribers mutate one list carried inside a fanned-out event."""
    built = {}

    def build(root: _Root) -> None:
        producer = root.create(_JobProducer)
        for tag in ("worker-a", "worker-b"):
            worker = root.create(_JobWorker, tag, name=tag)
            root.connect(worker.provided(WorkPort), producer.required(WorkPort))
        built["producer"] = producer.definition

    sim.bootstrap(_Root, build)
    return None


# ------------------------------------------------------- order-dependent bug


class _Bank(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(BankPort)
        self.balance = 0
        # Driven by the explorer's _inject helper (direct port injection the
        # static flow pass cannot see), not by in-tree trigger sites.
        self.subscribe(self.on_deposit, self.port)  # repro: noqa[F002]
        self.subscribe(self.on_withdraw, self.port)  # repro: noqa[F002]

    @handles(Deposit)
    def on_deposit(self, event: Deposit) -> None:
        self.balance += event.amount

    @handles(Withdraw)
    def on_withdraw(self, event: Withdraw) -> None:
        if event.amount > self.balance:
            raise ValueError(
                f"overdraft: withdraw {event.amount} with balance {self.balance}"
            )
        self.balance -= event.amount


def order_dependent_transfer(sim: Simulation):
    """Deposit and withdraw race at one timestamp; only FIFO order is safe.

    Both actions are scheduled for the same virtual instant, so the event
    queue holds a genuine tie: the FIFO baseline deposits first and
    passes, while a schedule that dispatches the withdrawal first faults
    with an overdraft — a minimal schedule-dependent bug for
    ``--explore`` / ``--replay``.
    """
    built = {}

    def build(root: _Root) -> None:
        built["bank"] = root.create(_Bank).definition

    sim.bootstrap(_Root, build)
    bank = built["bank"]
    sim.schedule(1.0, lambda: _inject(bank, BankPort, Deposit(100)))
    sim.schedule(1.0, lambda: _inject(bank, BankPort, Withdraw(100)))

    def check() -> None:
        if bank.balance != 0:
            raise AssertionError(f"unbalanced books: {bank.balance}")

    return check


# --------------------------------------------------------- nondeterministic


class _CoinFlipper(ComponentDefinition):
    """Branches on the *process-global* RNG — invisible to the seed."""

    FLIPS = 24

    def __init__(self) -> None:
        super().__init__()
        self.out = self.requires(CoinPort)
        self.subscribe(self.on_start, self.control)

    @handles(Start)
    def on_start(self, _event: Start) -> None:
        for _ in range(self.FLIPS):
            # the bug on display: an unseeded draw decides what executes
            if _global_random.getrandbits(1):
                self.trigger(Coin(heads=True), self.out)


class _CoinCounter(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(CoinPort)
        self.heads = 0
        self.subscribe(self.on_coin, self.port)

    @handles(Coin)
    def on_coin(self, coin: Coin) -> None:
        self.heads += 1


def nondet_rng(sim: Simulation):
    """Unseeded randomness: two same-seed runs execute different events."""
    def build(root: _Root) -> None:
        flipper = root.create(_CoinFlipper)
        # All Coin trace entries are identical tuples, so the number of heads
        # is the only divergence channel the flips provide (two runs collide
        # with probability ~1/sqrt(pi * FLIPS)).  An unseeded draw in the
        # component *name* puts every entry of this counter on its own key,
        # making same-trace collisions vanishingly unlikely.
        counter = root.create(
            _CoinCounter, name=f"counter-{_global_random.getrandbits(32):08x}"
        )
        root.connect(counter.provided(CoinPort), flipper.required(CoinPort))

    sim.bootstrap(_Root, build)
    return None


def nondet_clock(sim: Simulation):
    """A virtual delay derived from the wall clock: times drift per run."""
    built = {}

    def build(root: _Root) -> None:
        built["bank"] = root.create(_Bank).definition

    sim.bootstrap(_Root, build)
    bank = built["bank"]
    # The bug on display: a wall-clock read leaking into virtual time.
    skew = (_time.perf_counter() * 1_000.0) % 1.0
    sim.schedule(1.0 + skew, lambda: _inject(bank, BankPort, Deposit(1)))
    return None


# ------------------------------------------------------------- CATS fixtures


def _build_cats(sim: Simulation, node_ids):
    from ...cats import CatsConfig, CatsSimulator, Experiment, JoinNode, KeySpace

    built = {}

    def build(root: _Root) -> None:
        built["cats"] = root.create(
            CatsSimulator,
            CatsConfig(
                key_space=KeySpace(bits=16),
                replication_degree=3,
                stabilize_period=0.25,
                fd_interval=0.5,
                op_timeout=1.0,
            ),
        ).definition

    sim.bootstrap(_Root, build)
    cats = built["cats"]
    for offset, node_id in enumerate(node_ids):
        sim.schedule(
            0.5 + offset * 1.5,
            lambda nid=node_id: _inject(cats, Experiment, JoinNode(nid)),
        )
    return cats, Experiment


def cats_churn(sim: Simulation):
    """CATS under same-timestamp churn + workload; history must linearize."""
    from ...cats import FailNode, GetCmd, JoinNode, PutCmd
    from ...consistency import check_history

    node_ids = [100, 12_100, 24_100, 36_100, 48_100]
    cats, experiment = _build_cats(sim, node_ids)
    key = 1_111
    # Same-timestamp ties: churn and workload land at one virtual instant,
    # giving the explorer real reordering freedom.
    sim.schedule(12.0, lambda: _inject(cats, experiment, PutCmd(100, key, "v1")))
    sim.schedule(12.0, lambda: _inject(cats, experiment, FailNode(24_100)))
    sim.schedule(12.0, lambda: _inject(cats, experiment, GetCmd(36_100, key)))
    sim.schedule(16.0, lambda: _inject(cats, experiment, PutCmd(48_100, key, "v2")))
    sim.schedule(16.0, lambda: _inject(cats, experiment, JoinNode(54_000)))
    sim.schedule(16.0, lambda: _inject(cats, experiment, GetCmd(100, key)))

    def check() -> None:
        result = check_history(cats.history)
        if not result.linearizable:
            raise AssertionError(f"history not linearizable: {result.reason}")
        completed = cats.stats.puts_completed + cats.stats.gets_completed
        issued = cats.stats.puts_issued + cats.stats.gets_issued
        if issued and completed < issued * 0.5:
            raise AssertionError(f"workload starved: {completed}/{issued} completed")

    return check


cats_churn.default_until = 40.0  # type: ignore[attr-defined]


def abd_read_write(sim: Simulation):
    """Concurrent ABD puts/gets on one key; history must linearize."""
    from ...cats import GetCmd, PutCmd
    from ...consistency import check_history

    node_ids = [100, 20_000, 40_000]
    cats, experiment = _build_cats(sim, node_ids)
    key = 7_777
    sim.schedule(10.0, lambda: _inject(cats, experiment, PutCmd(100, key, "a")))
    sim.schedule(10.0, lambda: _inject(cats, experiment, PutCmd(20_000, key, "b")))
    sim.schedule(10.0, lambda: _inject(cats, experiment, GetCmd(40_000, key)))
    sim.schedule(13.0, lambda: _inject(cats, experiment, GetCmd(100, key)))

    def check() -> None:
        result = check_history(cats.history)
        if not result.linearizable:
            raise AssertionError(f"history not linearizable: {result.reason}")
        if cats.stats.gets_completed < 2:
            raise AssertionError(f"reads starved: {cats.stats.gets_completed}")

    return check


abd_read_write.default_until = 30.0  # type: ignore[attr-defined]


# ------------------------------------------------------------------ registry

FIXTURES: dict[str, Callable] = {
    "clean": clean_pipeline,
    "racy": racy_shared_list,
    "order-bug": order_dependent_transfer,
    "nondet": nondet_rng,
    "nondet-clock": nondet_clock,
    "cats-churn": cats_churn,
    "abd": abd_read_write,
}

#: Canonical spec string for each fixture (stored in replay files).
SPECS: dict[str, str] = {
    name: f"{__name__}:{fn.__name__}" for name, fn in FIXTURES.items()
}


def resolve_scenario(spec: str) -> Callable:
    """A scenario callable from a fixture alias or ``module:function`` spec."""
    if spec in FIXTURES:
        return FIXTURES[spec]
    if ":" not in spec:
        known = ", ".join(sorted(FIXTURES))
        raise ValueError(f"unknown scenario {spec!r}; fixtures: {known}")
    module_name, _, attr = spec.partition(":")
    module = importlib.import_module(module_name)
    scenario = getattr(module, attr, None)
    if not callable(scenario):
        raise ValueError(f"{spec!r} does not name a callable scenario")
    return scenario


def default_until(scenario: Callable) -> Optional[float]:
    """A fixture's suggested ``--until`` horizon, if it declares one."""
    return getattr(scenario, "default_until", None)
