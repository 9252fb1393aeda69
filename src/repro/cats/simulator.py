"""CatsSimulator: the whole-system experiment driver (paper Fig 12).

Interprets experiment commands — create/start a node, stop/destroy a node,
issue lookups, puts and gets — by dynamically creating and destroying
:class:`~repro.cats.node.CatsHost` composites, exactly the role of the
paper's CATS Simulator component.  Dynamic node churn is where Kompics'
hierarchical composition and dynamic reconfiguration pay off: a node is
one subtree, created and destroyed as a unit.

Under a :class:`~repro.simulation.Simulation` each host gets an
EmulatedNetwork and a SimTimer; under the real-time runtime it gets a
LoopbackNetwork and a ThreadTimer — the paper's local interactive
stress-test mode.  The system the simulator runs in decides; the host and
node code are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.component import ComponentDefinition
from ..core.event import Event
from ..core.handler import handles
from ..consistency.history import History, NOT_FOUND
from ..core.port import PortType
from ..network.address import Address, local_address
from ..network.loopback import LoopbackNetwork
from ..simulation.core import is_simulated
from ..simulation.emulator import EmulatedNetwork
from ..simulation.sim_timer import SimTimer
from ..timer.thread_timer import ThreadTimer
from .events import (
    GetRequest,
    GetResponse,
    PutGet,
    PutRequest,
    PutResponse,
    Ring,
    RingLookup,
    RingLookupResponse,
    new_op_id,
)
from .node import CatsConfig, CatsHost


# ------------------------------------------------------- experiment events


@dataclass(frozen=True, slots=True)
class JoinNode(Event):
    """Create and start a node with ring id ``node_id``."""

    node_id: int


@dataclass(frozen=True, slots=True)
class FailNode(Event):
    """Crash the alive node owning ``node_id`` (its successor, wrapping)."""

    node_id: int


@dataclass(frozen=True, slots=True)
class LookupCmd(Event):
    """Issue a ring lookup for ``key`` from the node owning ``node_id``."""

    node_id: int
    key: int


@dataclass(frozen=True, slots=True)
class PutCmd(Event):
    node_id: int
    key: int
    value: object = None


@dataclass(frozen=True, slots=True)
class GetCmd(Event):
    node_id: int
    key: int


class Experiment(PortType):
    """The simulator's command interface."""

    positive = ()
    negative = (JoinNode, FailNode, LookupCmd, PutCmd, GetCmd)


@dataclass(slots=True)
class ExperimentStats:
    """What the driver observed (virtual or wall-clock time units)."""

    joins: int = 0
    duplicate_joins: int = 0
    failures: int = 0
    lookups_issued: int = 0
    lookups_completed: int = 0
    lookup_latencies: list[float] = field(default_factory=list)
    lookup_hops: list[int] = field(default_factory=list)
    puts_issued: int = 0
    puts_completed: int = 0
    puts_failed: int = 0
    gets_issued: int = 0
    gets_completed: int = 0
    gets_failed: int = 0
    op_latencies: list[float] = field(default_factory=list)


# The experiment driver owns the simulated node population and the
# measurement accumulators; it is the per-process root of a simulation
# run, never a migration candidate, so it carries no handover hooks.
class CatsSimulator(ComponentDefinition):  # repro: noqa[P006]
    """Provides Experiment; creates and destroys simulated CATS nodes."""

    def __init__(
        self,
        config: Optional[CatsConfig] = None,
        seeds_per_join: int = 3,
    ) -> None:
        super().__init__()
        self.config = config or CatsConfig()
        self.seeds_per_join = seeds_per_join
        self._providers = (
            (EmulatedNetwork, SimTimer)
            if is_simulated(self.system)
            else (LoopbackNetwork, ThreadTimer)
        )
        self.experiment = self.provides(Experiment)
        self.hosts: dict[int, object] = {}  # node_id -> Component (host)
        self.stats = ExperimentStats()
        self.history = History()  # for linearizability checking
        self._lookup_times: dict[int, float] = {}
        self._op_times: dict[int, float] = {}

        self.subscribe(self.on_join, self.experiment)
        self.subscribe(self.on_fail, self.experiment)
        self.subscribe(self.on_lookup, self.experiment)
        self.subscribe(self.on_put, self.experiment)
        self.subscribe(self.on_get, self.experiment)

    # ---------------------------------------------------------------- churn

    @handles(JoinNode)
    def on_join(self, command: JoinNode) -> None:
        node_id = self.config.key_space.normalize(command.node_id)
        if node_id in self.hosts:
            self.stats.duplicate_joins += 1
            return
        seeds = self._pick_seeds()
        address = local_address(node_id, node_id=node_id)
        config = self._config_with_seeds(seeds)
        host = self.create(CatsHost, address, config, *self._providers)
        self.hosts[node_id] = host
        self.subscribe(self.on_lookup_response, host.provided(Ring))
        self.subscribe(self.on_put_response, host.provided(PutGet))
        self.subscribe(self.on_get_response, host.provided(PutGet))
        self.start_child(host)
        self.stats.joins += 1

    @handles(FailNode)
    def on_fail(self, command: FailNode) -> None:
        victim_id = self._owner_of(command.node_id)
        if victim_id is None or len(self.hosts) <= 1:
            return
        host = self.hosts.pop(victim_id)
        self.destroy(host)
        self.stats.failures += 1

    # ------------------------------------------------------------ operations

    @handles(LookupCmd)
    def on_lookup(self, command: LookupCmd) -> None:
        owner = self._owner_of(command.node_id)
        if owner is None:
            return
        op_id = new_op_id()
        self._lookup_times[op_id] = self.now()
        self.stats.lookups_issued += 1
        self.trigger(
            RingLookup(command.key, op_id=op_id), self.hosts[owner].provided(Ring)
        )

    @handles(PutCmd)
    def on_put(self, command: PutCmd) -> None:
        owner = self._owner_of(command.node_id)
        if owner is None:
            return
        op_id = new_op_id()
        self._op_times[op_id] = self.now()
        self.stats.puts_issued += 1
        self.history.invoke(
            op_id, owner, "put", command.key, value=command.value, time=self.now()
        )
        self.trigger(
            PutRequest(command.key, command.value, op_id=op_id),
            self.hosts[owner].provided(PutGet),
        )

    @handles(GetCmd)
    def on_get(self, command: GetCmd) -> None:
        owner = self._owner_of(command.node_id)
        if owner is None:
            return
        op_id = new_op_id()
        self._op_times[op_id] = self.now()
        self.stats.gets_issued += 1
        self.history.invoke(op_id, owner, "get", command.key, time=self.now())
        self.trigger(
            GetRequest(command.key, op_id=op_id), self.hosts[owner].provided(PutGet)
        )

    # ------------------------------------------------------------- responses

    @handles(RingLookupResponse)
    def on_lookup_response(self, response: RingLookupResponse) -> None:
        # Internal ring lookups (e.g. the quorum layer's routing fallback)
        # surface here too via port delegation; only count our own.
        issued = self._lookup_times.pop(response.op_id, None)
        if issued is None:
            return
        self.stats.lookups_completed += 1
        self.stats.lookup_latencies.append(self.now() - issued)
        self.stats.lookup_hops.append(response.hops)

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        issued = self._op_times.pop(response.op_id, None)
        if issued is None:
            return
        if response.ok:
            self.stats.puts_completed += 1
            self.stats.op_latencies.append(self.now() - issued)
            self.history.respond(response.op_id, self.now(), result=True)
        else:
            # A failed put may still have partially applied: leave it
            # pending in the history (the checker treats it soundly).
            self.stats.puts_failed += 1

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        issued = self._op_times.pop(response.op_id, None)
        if issued is None:
            return
        if response.ok:
            self.stats.gets_completed += 1
            self.stats.op_latencies.append(self.now() - issued)
            self.history.respond(
                response.op_id,
                self.now(),
                result=response.value if response.found else NOT_FOUND,
            )
        else:
            self.stats.gets_failed += 1

    # ---------------------------------------------------------------- helpers

    def _config_with_seeds(self, seeds: tuple[Address, ...]) -> CatsConfig:
        from dataclasses import replace

        return replace(self.config, seeds=seeds, bootstrap_server=None)

    def _pick_seeds(self) -> tuple[Address, ...]:
        if not self.hosts:
            return ()
        alive = list(self.hosts)
        self.system.random.shuffle(alive)
        return tuple(
            local_address(nid, node_id=nid) for nid in alive[: self.seeds_per_join]
        )

    def _owner_of(self, node_id: int) -> Optional[int]:
        """The alive node id owning ``node_id`` (its successor, wrapping)."""
        if not self.hosts:
            return None
        ids = sorted(self.hosts)
        key = self.config.key_space.normalize(node_id)
        for candidate in ids:
            if candidate >= key:
                return candidate
        return ids[0]

    def _node_for(self, node_id: int):
        """The CatsNode component owning ``node_id`` (test/benchmark hook;
        handler code goes through the host's delegated ports instead)."""
        owner = self._owner_of(node_id)
        if owner is None:
            return None
        return self.hosts[owner].definition.node

    @property
    def alive_count(self) -> int:
        return len(self.hosts)
