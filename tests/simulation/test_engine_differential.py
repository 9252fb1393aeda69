"""Differential determinism: the simulator vs. the heap/entry-at-a-time oracle.

The central contract of the simulator's hot loop: for a fixed seed and
fixture, :class:`~repro.simulation.Simulation` (batched run loop, bucketed
wheel queue, unlocked single-threaded paths) executes the *byte-identical*
trace of the original engine, which lives on as a test fixture in
``tests/reference/simulator.py``.  We pin it with ``Tracer.fingerprint()``
— a digest over every dispatched event, its handler and its virtual
timestamp — across the race-analysis fixtures, which between them cover
request/response pipelines, CATS churn (joins, kills, timer cancellation
storms) and quorum reads/writes.

With a schedule explorer's pickers installed the same must hold for the
recorded decision vector: the candidates offered at every tie are what the
oracle's ``pop_due`` offers, with and without a ``max_dispatches`` budget
that interrupts the run and resumes it.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.race.explorer import ScheduleController
from repro.analysis.race.fixtures import FIXTURES, default_until
from repro.runtime.trace import Tracer
from repro.simulation import Simulation

from tests.reference.simulator import ReferenceSimulation


def run_fixture(name, sim_class, seed, controller_seed=None, budget=None, until=None):
    sim = sim_class(seed=seed)
    sim.system.tracer = Tracer()
    controller = None
    if controller_seed is not None:
        controller = ScheduleController(rng=random.Random(controller_seed))
        controller.install(sim)
    fixture = FIXTURES[name]
    fixture(sim)
    if until is None:
        until = default_until(fixture)
        until = until if until is not None else 60.0
    reasons = []
    try:
        if budget is not None:
            reasons.append(sim.run(until=until, max_dispatches=budget))
        reasons.append(sim.run(until=until))
    except Exception as exc:  # noqa: BLE001 - an explored schedule may fault
        reasons.append(f"{type(exc).__name__}: {exc}")
    return (
        sim.system.tracer.fingerprint(),
        sim.events_dispatched,
        reasons,
        controller.decisions if controller is not None else None,
    )


CASES = [
    ("clean", 7),
    ("clean", 23),
    ("order-bug", 7),
    ("abd", 7),
    ("abd", 23),
    ("cats-churn", 7),
]


@pytest.mark.parametrize(("name", "seed"), CASES)
def test_fingerprints_identical_to_the_reference_engine(name, seed):
    assert run_fixture(name, Simulation, seed) == run_fixture(name, ReferenceSimulation, seed)


#: (fixture, budget, horizon): each budget lands inside its fixture's run,
#: and each horizon lies past the fixture's last same-timestamp tie.
EXPLORED = [
    ("clean", None, None),
    ("order-bug", None, None),
    ("order-bug", 1, None),
    ("abd", 500, 15.0),
    ("cats-churn", 500, 20.0),
]


@pytest.mark.parametrize(("name", "budget", "until"), EXPLORED)
def test_explored_schedules_identical_to_the_reference_engine(name, budget, until):
    ours = run_fixture(name, Simulation, 7, 3, budget, until)
    reference = run_fixture(name, ReferenceSimulation, 7, 3, budget, until)
    assert ours == reference
    assert ours[3], "the controller was never consulted: no tie was explored"
    assert budget is None or ours[2][0] == "budget"


def test_the_reference_runs_the_locked_component_paths():
    """The oracle must exercise the generic locked code, not the
    single-threaded shortcuts it is the oracle for."""
    assert Simulation(seed=1).system._single_threaded
    assert not ReferenceSimulation(seed=1).system._single_threaded


def test_simulation_is_deterministic_across_runs():
    assert run_fixture("clean", Simulation, 7) == run_fixture("clean", Simulation, 7)
