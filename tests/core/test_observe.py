"""The observer seam: profiler, race tracker and sanitizer compose.

Each client attaches to :mod:`repro.core.observe`; whatever the nesting
or overlap of their lifetimes, each must see exactly what it sees alone,
and the slot must read ``None`` once the last one detaches.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import pytest

from repro import ComponentDefinition, Event, PortType, Start, handles
from repro.analysis import sanitized
from repro.analysis.race import RaceRuntime, race_tracking
from repro.analysis.race.fixtures import abd_read_write, default_until, racy_shared_list
from repro.analysis.race.hb import HBTracker
from repro.analysis.race.recorder import AccessRecorder
from repro.core import observe
from repro.core.component import WorkItem
from repro.core.dispatch import trigger
from repro.core.errors import EventMutationError, ReentrancyError
from repro.simulation import Simulation

from ..kit import Scaffold, make_system

UNTIL = default_until(abd_read_write)


def abd_simulation() -> Simulation:
    sim = Simulation(seed=3)
    abd_read_write(sim)
    return sim


def executions(profiler) -> int:
    return sum(count for _seconds, count in profiler.by_definition.values())


@pytest.fixture(scope="module")
def solo():
    """What each client records when it runs alone: (executions, epochs)."""
    sim = abd_simulation()
    with sim.profile() as profiler:
        sim.run(until=UNTIL)
    sim = abd_simulation()
    with race_tracking(keep_epochs=True) as rt:
        sim.run(until=UNTIL)
    assert observe.observer is None
    return executions(profiler), len(rt.tracker.epochs)


def test_solo_runs_record_work(solo):
    assert solo[0] > 1000 and solo[1] > solo[0]


def test_profile_outside_race_tracking(solo):
    sim = abd_simulation()
    with sim.profile() as profiler:
        with race_tracking(keep_epochs=True) as rt:
            sim.run(until=UNTIL)
        assert observe.observer is profiler
    assert observe.observer is None
    assert (executions(profiler), len(rt.tracker.epochs)) == solo


def test_race_tracking_outside_profile(solo):
    sim = abd_simulation()
    with race_tracking(keep_epochs=True) as rt:
        with sim.profile() as profiler:
            sim.run(until=UNTIL)
        assert observe.observer is rt
    assert observe.observer is None
    assert (executions(profiler), len(rt.tracker.epochs)) == solo


def test_overlapping_lifetimes(solo):
    """Profiler attaches first and leaves first; race tracking outlives it."""
    sim = abd_simulation()
    profiler = sim.profile()
    rt = RaceRuntime(keep_epochs=True)
    rt.install()
    try:
        sim.run(until=UNTIL)
        profiler.uninstall()
        assert observe.observer is rt
        sim.run(until=UNTIL + 5.0)  # race tracking alone, for a while longer
    finally:
        profiler.uninstall()
        rt.uninstall()
    assert observe.observer is None
    assert executions(profiler) == solo[0]
    rest = abd_simulation()
    with race_tracking(keep_epochs=True) as alone:
        rest.run(until=UNTIL + 5.0)
    assert len(rt.tracker.epochs) == len(alone.tracker.epochs) > solo[1]


def test_fan_out_ends_in_reverse_attach_order():
    calls = []

    class Named(observe.Observer):
        def __init__(self, name):
            self.name = name

        def begin(self, core, item):
            calls.append(("begin", self.name))

        def end(self, core, item):
            calls.append(("end", self.name))

    first, second = Named("first"), Named("second")
    observe.attach(first)
    observe.attach(second)
    try:
        with pytest.raises(ValueError):
            observe.attach(first)
        observe.observer.begin(None, None)
        observe.observer.end(None, None)
    finally:
        observe.detach(first)
        assert observe.observer is second
        observe.detach(second)
    assert observe.observer is None
    assert calls == [
        ("begin", "first"), ("begin", "second"), ("end", "second"), ("end", "first"),
    ]


# --------------------------------------------------- sanitizer + race tracking


@dataclass
class Note(Event):
    text: str = ""


class NotePort(PortType):
    positive = (Note,)
    negative = (Note,)


class Scribbler(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(NotePort)
        self.subscribe(self.on_note, self.port)

    @handles(Note)
    def on_note(self, event: Note) -> None:
        event.text = "scribbled"


class Reentrant(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(NotePort)
        self.subscribe(self.on_note, self.port)

    @handles(Note)
    def on_note(self, event: Note) -> None:
        self.core._execute_item(WorkItem(event, None, (), False))


def run_note(definition) -> None:
    built = {}

    def builder(root):
        built["c"] = root.create(definition)

    system = make_system()
    system.bootstrap(Scaffold, builder)
    trigger(Start(), built["c"].control())
    system.scheduler.run_to_quiescence()
    trigger(Note("hello"), built["c"].provided(NotePort))
    system.scheduler.run_to_quiescence()


@pytest.mark.parametrize("sanitizer_first", [True, False], ids=["san-race", "race-san"])
def test_sanitizer_and_race_tracking_stacked(sanitizer_first):
    with contextlib.ExitStack() as stack:
        if sanitizer_first:
            stack.enter_context(sanitized())
        rt = stack.enter_context(race_tracking())
        if not sanitizer_first:
            stack.enter_context(sanitized())
        with pytest.raises(EventMutationError, match="S001"):
            run_note(Scribbler)
        with pytest.raises(ReentrancyError, match="S002"):
            run_note(Reentrant)
        sim = Simulation(seed=0)
        racy_shared_list(sim)
        sim.run()
    assert observe.observer is None
    assert "R001" in {finding.rule for finding in rt.findings()}


# ------------------------------------------------------------------ recorder


@dataclass
class Box(Event):
    items: object = None


def test_recorder_watches_payload_of_event_at_a_reused_address():
    """An event without payload must not stand in for a later event that
    happens to be allocated at its address."""
    for _ in range(100):
        recorder = AccessRecorder(HBTracker())
        recorder.register_event(Box(items=None))  # freed right away
        box = Box(items=[])
        recorder.register_event(box)
        snapshot = recorder.begin(None, WorkItem(box, None, (), False))
        assert [name for name, _obj, _probe in snapshot] == ["Box.items"]
