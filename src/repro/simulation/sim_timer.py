"""SimTimer: the Timer abstraction under virtual time.

Drop-in replacement for :class:`~repro.timer.thread_timer.ThreadTimer` in
simulation mode — same port, same events, but expiries come from the
simulation's discrete-event queue, so the same component code runs
unchanged under virtual time (the paper's core decoupling claim).

Periodic timers are the simulator's hottest schedule source (failure
detectors, shuffles, stabilization), so each period re-arms through
``queue.reschedule`` with a reusable callable — no fresh closure or entry
allocation per tick.
"""

from __future__ import annotations

from ..core.component import ComponentDefinition
from ..core.handler import handles
from ..timer.port import (
    CancelPeriodicTimeout,
    CancelTimeout,
    ScheduleTimeout,
    SchedulePeriodicTimeout,
    Timeout,
    Timer,
)
from .core import queue_of
from .event_queue import ScheduledEntry


class _PeriodicFire:
    """The queue action of one periodic timeout, reused across periods."""

    __slots__ = ("timer", "timeout", "period", "entry")

    def __init__(self, timer: "SimTimer", timeout: Timeout, period: float) -> None:
        self.timer = timer
        self.timeout = timeout
        self.period = period
        self.entry: ScheduledEntry | None = None

    def __call__(self) -> None:
        timer = self.timer
        timeout_id = self.timeout.timeout_id
        if timer._pending.get(timeout_id) is not self.entry:
            return  # cancelled (or superseded by a reused id)
        timer.trigger(self.timeout, timer.port)
        self.entry = timer._queue.reschedule(
            self.entry, timer.system.clock.now() + self.period
        )
        timer._pending[timeout_id] = self.entry


# Pending entries reference the simulation's event queue directly; the
# timer is part of a shard's per-process service plumbing (like the
# queue it wraps), never a migration candidate, so no handover hooks.
class SimTimer(ComponentDefinition):  # repro: noqa[P006]
    """Timer service backed by the simulation event queue."""

    def __init__(self) -> None:
        super().__init__()
        self.port = self.provides(Timer)
        self._queue = queue_of(self.system)
        self._pending: dict[int, ScheduledEntry] = {}
        self.subscribe(self.on_schedule, self.port)
        self.subscribe(self.on_schedule_periodic, self.port)
        self.subscribe(self.on_cancel, self.port)
        self.subscribe(self.on_cancel_periodic, self.port)

    def _fire_once(self, timeout: Timeout) -> None:
        self._pending.pop(timeout.timeout_id, None)
        self.trigger(timeout, self.port)

    @handles(ScheduleTimeout)
    def on_schedule(self, request: ScheduleTimeout) -> None:
        entry = self._queue.schedule(
            self.system.clock.now() + request.delay,
            lambda: self._fire_once(request.timeout),
        )
        self._pending[request.timeout.timeout_id] = entry

    @handles(SchedulePeriodicTimeout)
    def on_schedule_periodic(self, request: SchedulePeriodicTimeout) -> None:
        fire = _PeriodicFire(self, request.timeout, request.period)
        entry = self._queue.schedule(self.system.clock.now() + request.delay, fire)
        fire.entry = entry
        self._pending[request.timeout.timeout_id] = entry

    @handles(CancelTimeout)
    def on_cancel(self, request: CancelTimeout) -> None:
        entry = self._pending.pop(request.timeout_id, None)
        if entry is not None:
            entry.cancel()

    @handles(CancelPeriodicTimeout)
    def on_cancel_periodic(self, request: CancelPeriodicTimeout) -> None:
        entry = self._pending.pop(request.timeout_id, None)
        if entry is not None:
            entry.cancel()
