"""A churn event costs the dispatch plans of the host it touches, not the ring's.

Every simulated host is its own subtree (its own emulated network and
timer), so a ``JoinNode`` or ``FailNode`` changes no face that a route of
another host reads.  The counts below are exact for a seed; before plans
were invalidated per face every route in the system was rebuilt on its
next use after each of these commands — O(ring size) per churn event, the
quadratic term of a boot.
"""

from __future__ import annotations

import random

from repro import ComponentDefinition
from repro.cats import CatsSimulator, Experiment, FailNode, JoinNode
from repro.core import routing
from repro.simulation import Simulation

from tests.reference.walker import faces_of

JOIN_GAP = 0.05


class World(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.simulator = self.create(CatsSimulator)
        self.experiment = self.simulator.provided(Experiment)


class Ring:
    def __init__(self, seed: int = 18) -> None:
        self.simulation = Simulation(seed=seed)
        self.system = self.simulation.system
        self.rng = random.Random(seed)
        self.world = self.simulation.bootstrap(World).definition
        self.simulator = self.world.simulator.definition

    def command(self, event) -> int:
        """Issue ``event`` and run its instant; the plans compiled doing so."""
        before = self.system.plans_compiled
        self.world.trigger(event, self.world.experiment)
        self.simulation.run(until=self.simulation.now())
        return self.system.plans_compiled - before

    def join(self) -> int:
        compiled = self.command(JoinNode(self.rng.randrange(2**16)))
        self.simulation.run(until=self.simulation.now() + JOIN_GAP)
        return compiled

    def plans_by_host(self) -> dict[int, list]:
        """Every plan object cached anywhere under each host, by node id."""
        found = {}
        for node_id, host in self.simulator.hosts.items():
            plans, stack = [], [host.core]
            while stack:
                core = stack.pop()
                stack.extend(core.children)
                for face in faces_of(core):
                    plans.extend(routing.cached_plans(face))
            found[node_id] = plans
        return found


def assert_same_objects(before: dict[int, list], after: dict[int, list]) -> None:
    for node_id, plans in before.items():
        assert len(after[node_id]) >= len(plans) > 0
        kept = {id(plan) for plan in after[node_id]}
        assert all(id(plan) in kept for plan in plans), f"host {node_id} recompiled"


def test_a_joins_plan_compiles_do_not_grow_with_the_ring():
    ring = Ring()
    compiled = [ring.join() for _ in range(64)]
    assert compiled[7] == compiled[63] > 0
    assert ring.system.plans_invalidated == 0  # a boot only ever adds routes


def test_join_and_fail_leave_every_other_hosts_plans_alone():
    ring = Ring()
    for _ in range(12):
        ring.join()
    ring.simulation.run(until=ring.simulation.now() + 5.0)

    before = ring.plans_by_host()
    ring.command(JoinNode(ring.rng.randrange(2**16)))
    assert_same_objects(before, ring.plans_by_host())
    ring.simulation.run(until=ring.simulation.now() + 5.0)

    victim = sorted(ring.simulator.hosts)[3]
    before = ring.plans_by_host()
    del before[victim]
    invalidated = ring.system.plans_invalidated
    ring.command(FailNode(victim))
    assert victim not in ring.simulator.hosts
    assert ring.system.plans_invalidated > invalidated  # the victim's own
    assert_same_objects(before, ring.plans_by_host())


def test_profiler_report_shows_the_plan_counters():
    ring = Ring()
    ring.join()
    system = ring.system
    compiled, invalidated = system.plans_compiled, system.plans_invalidated
    with ring.simulation.profile() as profile:
        ring.join()
        ring.command(FailNode(sorted(ring.simulator.hosts)[0]))
    compiled = system.plans_compiled - compiled
    invalidated = system.plans_invalidated - invalidated
    assert compiled > 0 and invalidated > 0
    assert f"dispatch plans: {compiled} compiled, {invalidated} invalidated" in profile.report()
