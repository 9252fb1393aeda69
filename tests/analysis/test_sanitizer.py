"""Runtime sanitizer (rules S001/S002): violations raise at the faulty site."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import pytest

from repro import ComponentDefinition, Event, PortType, Start, handles
from repro.analysis import is_enabled, sanitized
from repro.analysis import sanitizer
from repro.core.component import ExecutionState
from repro.core.dispatch import trigger
from repro.core.errors import EventMutationError, ReentrancyError, SanitizerError

from ..kit import Scaffold, make_system


@dataclass
class Note(Event):
    """Deliberately mutable (no frozen=True): the sanitizer's quarry."""

    text: str = ""


class NotePort(PortType):
    positive = (Note,)
    negative = (Note,)


class Scribbler(ComponentDefinition):
    """Mutates the events it receives — the planted cross-component bug."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(NotePort)
        self.subscribe(self.on_note, self.port)

    @handles(Note)
    def on_note(self, event: Note) -> None:
        event.text = "scribbled"


class Reader(ComponentDefinition):
    """A second subscriber sharing the same delivered event object."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(NotePort)
        self.seen: list[str] = []
        self.subscribe(self.on_note, self.port)

    @handles(Note)
    def on_note(self, event: Note) -> None:
        self.seen.append(event.text)


def build_world(builder):
    system = make_system()
    root = system.bootstrap(Scaffold, builder)
    return system, root


def start_and_settle(system, component):
    trigger(Start(), component.control())
    system.scheduler.run_to_quiescence()


# ---------------------------------------------------------------------- S001


def test_s001_cross_component_mutation_is_caught():
    built = {}

    def builder(root):
        built["scribbler"] = root.create(Scribbler)

    with sanitized():
        system, _ = build_world(builder)
        start_and_settle(system, built["scribbler"])
        trigger(Note("hello"), built["scribbler"].provided(NotePort))
        with pytest.raises(EventMutationError) as err:
            system.scheduler.run_to_quiescence()
    message = str(err.value)
    assert "S001" in message
    assert "Scribbler" in message  # names the offending component


def test_s001_mutation_outside_any_handler_is_caught():
    built = {}

    def builder(root):
        built["reader"] = root.create(Reader)

    with sanitized():
        system, _ = build_world(builder)
        start_and_settle(system, built["reader"])
        note = Note("first")
        trigger(note, built["reader"].provided(NotePort))
        system.scheduler.run_to_quiescence()
        with pytest.raises(EventMutationError):
            note.text = "reused"  # triggered events stay sealed


def test_s001_untriggered_events_stay_mutable():
    with sanitized():
        note = Note("draft")
        note.text = "edited"  # not yet triggered: free to build up
        assert note.text == "edited"


def test_sanitizer_violation_is_not_swallowed_by_fault_isolation():
    # Handler exceptions normally become Faults; sanitizer errors must
    # surface unwrapped even under fault_policy="record".
    built = {}

    def builder(root):
        built["scribbler"] = root.create(Scribbler)

    with sanitized():
        system = make_system(fault_policy="record")
        system.bootstrap(Scaffold, builder)
        start_and_settle(system, built["scribbler"])
        trigger(Note("x"), built["scribbler"].provided(NotePort))
        with pytest.raises(SanitizerError):
            system.scheduler.run_to_quiescence()


def test_disabled_sanitizer_allows_mutation():
    built = {}

    def builder(root):
        built["scribbler"] = root.create(Scribbler)

    assert not is_enabled()
    system, _ = build_world(builder)
    start_and_settle(system, built["scribbler"])
    trigger(Note("hello"), built["scribbler"].provided(NotePort))
    system.scheduler.run_to_quiescence()  # mutation passes silently


def test_guard_is_removed_when_last_enable_is_released():
    from repro.core.event import Event as EventBase

    with sanitized():
        assert "__setattr__" in EventBase.__dict__
        with sanitized():  # refcounted: nested enable
            assert is_enabled()
        assert is_enabled()  # still on: outer scope holds a reference
    assert not is_enabled()
    assert "__setattr__" not in EventBase.__dict__
    note = Note("x")
    note.text = "y"  # back to zero-overhead plain events
    assert note.text == "y"


# ---------------------------------------------------------------------- S002


class Reentrant(ComponentDefinition):
    """Illegally re-invokes the execution machinery from inside a handler."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(NotePort)
        self.subscribe(self.on_note, self.port)

    @handles(Note)
    def on_note(self, event: Note) -> None:
        barge_in(self.core, event)


def barge_in(core, event: Note) -> None:
    """Execute ``event`` at ``core`` as a scheduler that lost its BUSY state
    would: queue it behind a forced READY and call ``execute``."""
    core._exec_state = ExecutionState.READY
    core.receive_work(event, (), False)
    core.execute()


def test_s002_reentrant_handler_execution_is_caught():
    built = {}

    def builder(root):
        built["reentrant"] = root.create(Reentrant)

    with sanitized():
        system, _ = build_world(builder)
        start_and_settle(system, built["reentrant"])
        trigger(Note("a"), built["reentrant"].provided(NotePort))
        with pytest.raises(ReentrancyError) as err:
            system.scheduler.run_to_quiescence()
    assert "S002" in str(err.value)


def test_s002_concurrent_execution_from_second_thread_is_caught():
    built = {}
    errors: list[BaseException] = []

    class Blocker(ComponentDefinition):
        """Holds its handler open while a second thread barges in."""

        def __init__(self) -> None:
            super().__init__()
            self.port = self.provides(NotePort)
            self.entered = threading.Event()
            self.release = threading.Event()
            self.subscribe(self.on_note, self.port)

        @handles(Note)
        def on_note(self, event: Note) -> None:
            self.entered.set()
            self.release.wait(timeout=5)

    def builder(root):
        built["blocker"] = root.create(Blocker)

    with sanitized():
        system, _ = build_world(builder)
        start_and_settle(system, built["blocker"])
        definition = built["blocker"].definition
        core = built["blocker"].core
        trigger(Note("a"), built["blocker"].provided(NotePort))

        def first():
            try:
                system.scheduler.run_to_quiescence()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        worker = threading.Thread(target=first)
        worker.start()
        assert definition.entered.wait(timeout=5)
        # A second thread invading the same component's execution is the
        # scheduler-bypass race the monitor exists to catch.
        with pytest.raises(ReentrancyError) as err:
            barge_in(core, Note("b"))
        definition.release.set()
        worker.join(timeout=5)
    assert "two threads" in str(err.value) or "concurrently" in str(err.value)
    assert errors == []


def test_env_var_activation(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitizer.activate_from_env()
    try:
        assert is_enabled()
    finally:
        sanitizer.disable()
    assert not is_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "")
    assert not sanitizer.activate_from_env()
    assert not is_enabled()


def test_harness_sanitize_flag():
    from repro.testkit import ComponentHarness

    harness = ComponentHarness(Scribbler, sanitize=True)
    try:
        assert is_enabled()
        probe = harness.probe(NotePort)
        harness.start()
        with pytest.raises(EventMutationError):
            probe.inject(Note("hi"))
        assert harness.verify_wiring() == []
    finally:
        harness.shutdown()
    assert not is_enabled()
