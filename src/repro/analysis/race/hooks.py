"""RaceRuntime: happens-before tracking attached to the observer seam.

``install()`` attaches a :class:`RaceRuntime` to :mod:`repro.core.observe`,
beside any profiler or sanitizer.  With tracking off the seam's slot is
None and dispatch pays one test per hook site and nothing else
(``benchmarks/bench_observer_overhead.py``).  One race runtime can be
installed at a time: the ``note_*`` helpers address it.

Typical use::

    from repro.analysis.race import race_tracking

    with race_tracking() as rt:
        sim = Simulation(seed=7)
        ... build and run ...
    for finding in rt.findings():
        print(finding.format())

Instrumented application code may add explicit accesses::

    from repro.analysis.race import note_read, note_write, track_object

    track_object(self.cache, "Server.cache")   # no-op when tracking is off
    note_write(self.cache)
"""

from __future__ import annotations

import contextlib
import threading
from typing import TYPE_CHECKING, Iterator, Optional

from ...core import observe
from ..findings import Finding
from .hb import HBTracker
from .recorder import AccessRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ...core.component import ComponentCore, WorkItem

_install_lock = threading.Lock()
_active: Optional["RaceRuntime"] = None


class RaceRuntime(observe.Observer):
    """One race-analysis session: tracker + recorder, as a seam observer."""

    def __init__(self, keep_epochs: bool = False, capture_stacks: bool = True) -> None:
        self.tracker = HBTracker(keep_epochs=keep_epochs)
        self.recorder = AccessRecorder(self.tracker, capture_stacks=capture_stacks)
        # Open executions: one per component at a time (handler mutual
        # exclusion), each with its epoch and the recorder's snapshot.
        self._open: dict["ComponentCore", tuple] = {}
        # The hooks the tracker answers alone, bound under the seam's names.
        tracker = self.tracker
        self.channel_op = tracker.channel_op
        self.transferred = tracker.state_transfer
        self.scheduled = tracker.stamp_entry
        self.fire_begin = tracker.fire_begin
        self.fire_end = tracker.end_execution

    # -------------------------------------------------------- observer hooks

    def triggered(self, event: object) -> None:
        self.tracker.stamp_event(event)
        self.recorder.register_event(event)

    def begin(self, core: "ComponentCore", item: "WorkItem") -> None:
        epoch = self.tracker.begin_execution(core, item)
        self._open[core] = (epoch, self.recorder.begin(core, item))

    def end(self, core: "ComponentCore", item: "WorkItem") -> None:
        opened = self._open.pop(core, None)
        if opened is not None:
            self.recorder.end(core, item, *opened)
        self.tracker.end_execution(core, item)

    # --------------------------------------------------------- installation

    def install(self) -> None:
        global _active
        with _install_lock:
            if _active is self:
                return
            if _active is not None:
                raise RuntimeError("another RaceRuntime is already installed")
            _active = self
            observe.attach(self)

    def uninstall(self) -> None:
        global _active
        with _install_lock:
            if _active is self:
                _active = None
                observe.detach(self)

    # -------------------------------------------------------------- results

    def findings(self) -> list[Finding]:
        return list(self.recorder.findings)


def active_runtime() -> Optional[RaceRuntime]:
    """The currently installed runtime, or None when tracking is off."""
    return _active


@contextlib.contextmanager
def race_tracking(
    keep_epochs: bool = False, capture_stacks: bool = True
) -> Iterator[RaceRuntime]:
    """Enable race tracking for a ``with`` block; always uninstalls."""
    runtime = RaceRuntime(keep_epochs=keep_epochs, capture_stacks=capture_stacks)
    runtime.install()
    try:
        yield runtime
    finally:
        runtime.uninstall()


def track_object(obj: object, name: Optional[str] = None) -> None:
    """Watch ``obj`` for unordered conflicting accesses (no-op when off)."""
    runtime = _active
    if runtime is not None:
        runtime.recorder.track_object(obj, name)


def note_read(obj: object, name: Optional[str] = None) -> None:
    """Record a read of ``obj`` by the current execution (no-op when off)."""
    runtime = _active
    if runtime is not None:
        runtime.recorder.explicit_access(obj, "read", name)


def note_write(obj: object, name: Optional[str] = None) -> None:
    """Record a write of ``obj`` by the current execution (no-op when off)."""
    runtime = _active
    if runtime is not None:
        runtime.recorder.explicit_access(obj, "write", name)
