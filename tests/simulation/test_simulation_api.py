"""Simulation control surface: stop reasons, budgets, stepping."""

from __future__ import annotations

import pytest

from dataclasses import dataclass

from repro import ComponentDefinition, Start, handles
from repro.simulation import SimTimer, Simulation
from repro.timer import ScheduleTimeout, Timeout, Timer, new_timeout_id

from tests.kit import Scaffold


@dataclass(frozen=True)
class Beat(Timeout):
    pass


class Beater(ComponentDefinition):
    """Schedules a chain of N timeouts, one per virtual second."""

    def __init__(self, count: int) -> None:
        super().__init__()
        self.timer = self.requires(Timer)
        self.remaining = count
        self.beats: list[float] = []
        self.subscribe(self.on_beat, self.timer)
        self.subscribe(self.on_start, self.control)

    def _arm(self) -> None:
        self.trigger(ScheduleTimeout(1.0, Beat(new_timeout_id())), self.timer)

    @handles(Start)
    def on_start(self, _event) -> None:
        if self.remaining:
            self._arm()

    @handles(Beat)
    def on_beat(self, _beat: Beat) -> None:
        self.beats.append(self.now())
        self.remaining -= 1
        if self.remaining:
            self._arm()


def _world(count=5):
    simulation = Simulation(seed=1)
    built = {}

    def build(scaffold):
        timer = scaffold.create(SimTimer)
        built["beater"] = scaffold.create(Beater, count)
        scaffold.connect(timer.provided(Timer), built["beater"].required(Timer))

    simulation.bootstrap(Scaffold, build)
    return simulation, built["beater"].definition


def test_quiescent_when_all_work_is_done():
    simulation, beater = _world(count=3)
    assert simulation.run() == "quiescent"
    assert beater.beats == [1.0, 2.0, 3.0]


def test_budget_limits_dispatched_events():
    simulation, beater = _world(count=100)
    reason = simulation.run(max_dispatches=4)
    assert reason == "budget"
    assert len(beater.beats) == 4
    assert simulation.run(max_dispatches=8) == "budget"
    assert len(beater.beats) == 8


def test_stop_requested_by_a_scheduled_action():
    simulation, beater = _world(count=100)
    simulation.schedule(4.5, simulation.stop)
    reason = simulation.run()
    assert reason == "stopped"
    assert simulation.now() == 4.5
    assert len(beater.beats) == 4


def test_horizon_leaves_future_events_intact():
    simulation, beater = _world(count=10)
    assert simulation.run(until=3.5) == "horizon"
    assert len(beater.beats) == 3
    assert simulation.run(until=20.0) == "quiescent"
    assert len(beater.beats) == 10


def test_events_dispatched_counter_is_cumulative():
    simulation, beater = _world(count=4)
    simulation.run()
    assert simulation.events_dispatched == 4


# ------------------------------------------- one loop: batches, budgets, picks


def _same_timestamp(count=5, at=1.0):
    """``count`` entries at one timestamp; firing entry i appends i."""
    simulation = Simulation(seed=1)
    fired: list[int] = []
    entries = [
        simulation.schedule(at, lambda i=i: fired.append(i)) for i in range(count)
    ]
    return simulation, fired, entries


def test_stop_then_budget_inside_one_batch_resumes_the_tail_without_requeueing():
    simulation, fired, entries = _same_timestamp()
    entries[1].action = lambda: (fired.append(1), simulation.stop())
    assert simulation.run() == "stopped"
    assert fired == [0, 1]
    assert simulation.run(max_dispatches=3) == "budget"  # cumulative: one more
    assert fired == [0, 1, 2]
    assert simulation.run() == "quiescent"
    assert fired == [0, 1, 2, 3, 4]
    # The parked tail was resumed, never scheduled a second time
    # (bench/sim.py derives cancel_share from these two counters).
    assert simulation.queue.scheduled_total == 5
    assert simulation.queue.fired_total == 5
    assert simulation.events_dispatched == 5


def test_budget_reached_mid_batch_parks_the_rest_in_order():
    simulation, fired, _entries = _same_timestamp()
    assert simulation.run(max_dispatches=2) == "budget"
    assert fired == [0, 1]
    assert simulation.now() == 1.0
    assert simulation.run() == "quiescent"
    assert fired == [0, 1, 2, 3, 4]


def test_parked_entry_cancelled_between_runs_is_skipped():
    simulation, fired, entries = _same_timestamp()
    assert simulation.run(max_dispatches=2) == "budget"
    entries[3].cancel()
    assert simulation.run() == "quiescent"
    assert fired == [0, 1, 2, 4]
    assert simulation.events_dispatched == 4


def test_spent_budget_is_reported_before_quiescence_or_horizon():
    simulation, fired, _entries = _same_timestamp(count=2)
    assert simulation.run(max_dispatches=2) == "budget"  # queue now empty
    assert fired == [0, 1]
    assert simulation.run(max_dispatches=2) == "budget"
    assert simulation.run(until=5.0, max_dispatches=2) == "budget"
    assert simulation.now() == 1.0  # a spent budget does not advance time
    assert simulation.run(until=5.0) == "quiescent"


def test_picker_sees_an_entry_the_last_dispatch_scheduled_at_this_timestamp():
    simulation = Simulation(seed=1)
    fired: list[str] = []
    offered: list[list[str]] = []
    names = {}

    def add(name, delay, action=None):
        entry = simulation.schedule(delay, action or (lambda: fired.append(name)))
        names[entry] = name

    def first():
        fired.append("a")
        add("late", 0.0)  # same timestamp, scheduled by the dispatch just made

    add("a", 1.0, first)
    add("b", 1.0)
    add("c", 1.0)

    def newest(entries):
        offered.append([names[entry] for entry in entries])
        return len(entries) - 1 if fired else 0

    simulation.queue.picker = newest
    assert simulation.run() == "quiescent"
    assert offered == [["a", "b", "c"], ["b", "c", "late"], ["b", "c"]]
    assert fired == ["a", "late", "c", "b"]


def test_picker_reverses_a_batch_and_counts_every_dispatch():
    simulation, fired, _entries = _same_timestamp(count=3)
    simulation.queue.picker = lambda entries: len(entries) - 1
    assert simulation.run() == "quiescent"
    assert fired == [2, 1, 0]
    assert simulation.queue.fired_total == simulation.events_dispatched == 3


def test_replay_file_written_before_the_loops_were_merged_still_reproduces():
    """``order_bug_replay.json`` is what ``race order-bug --explore 20
    --output`` wrote at PR 12 (950dc3b), when a picker ran on the
    entry-at-a-time loop: same ties, same decision, same failure."""
    from pathlib import Path

    from repro.analysis.race.explorer import replay

    result = replay(Path(__file__).with_name("order_bug_replay.json"))
    assert result.reproduced
    assert result.decisions == [1]
    assert result.failure == "ValueError: overdraft: withdraw 100 with balance 0"
