"""The pre-wheel simulator, kept as the determinism oracle.

:class:`HeapEventQueue` is the original binary-heap queue: cancelled
entries tombstone until their deadline, ``__len__`` scans, pops pay
Python-level comparisons.  :class:`ReferenceSimulation` drives it with the
original loop — one ``pop_due`` per dispatch, ``run_to_quiescence`` in
between — over the generic locked execution paths of ``ComponentCore``
(the ones the threaded runtime uses).  The engine differential asserts a
byte-identical ``Tracer.fingerprint()`` between this and
:class:`repro.simulation.Simulation`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Sequence

from repro.core import observe
from repro.simulation.core import QUEUE_SERVICE, Simulation
from repro.simulation.event_queue import ScheduledEntry


class HeapEventQueue:
    """Deterministic min-heap of timed actions, FIFO among equal timestamps.

    Heap items are ``(time, sequence, entry)``; the sequence is unique, so
    entries themselves are never compared.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, ScheduledEntry]] = []
        self._sequence = itertools.count()
        self.scheduled_total = 0
        self.fired_total = 0
        #: Same-timestamp chooser; see ``EventQueue.picker``.
        self.picker: Optional[Callable[[Sequence[ScheduledEntry]], int]] = None

    def schedule(self, at: float, action: Callable[[], None]) -> ScheduledEntry:
        entry = ScheduledEntry(at, next(self._sequence), action)
        obs = observe.observer
        if obs is not None:
            obs.scheduled(entry)
        heapq.heappush(self._heap, (entry.time, entry.sequence, entry))
        self.scheduled_total += 1
        return entry

    def reschedule(self, entry: ScheduledEntry, at: float) -> ScheduledEntry:
        """Re-arm: a fresh entry (the heap cannot reuse objects)."""
        return self.schedule(at, entry.action)

    def pop_due(self) -> Optional[ScheduledEntry]:
        """Pop the earliest non-cancelled entry, or None if empty.

        With a ``picker`` installed, all non-cancelled entries at the
        earliest timestamp are candidates and the picker selects which one
        fires; the rest are pushed back unchanged.
        """
        if self.picker is None:
            while self._heap:
                entry = heapq.heappop(self._heap)[2]
                if not entry.cancelled:
                    self.fired_total += 1
                    return entry
            return None
        while self._heap:
            earliest = self._heap[0][0]
            due: list[ScheduledEntry] = []
            while self._heap and self._heap[0][0] == earliest:
                entry = heapq.heappop(self._heap)[2]
                if not entry.cancelled:
                    due.append(entry)
            if not due:
                continue  # every entry at this timestamp was cancelled
            chosen = due.pop(self.picker(due) if len(due) > 1 else 0)
            for entry in due:
                heapq.heappush(self._heap, (entry.time, entry.sequence, entry))
            self.fired_total += 1
            return chosen
        return None

    def peek_time(self) -> Optional[float]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return sum(1 for item in self._heap if not item[2].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class ReferenceSimulation(Simulation):
    """:class:`Simulation` on the heap queue, one entry at a time."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.queue = HeapEventQueue()
        self.system.register_service(QUEUE_SERVICE, self.queue)
        # Take the condition-locked ready/idle transitions and the generic
        # execute() path.  Before bootstrap: component cores cache the flag.
        self.system._single_threaded = False

    def run(self, until: Optional[float] = None, max_dispatches: Optional[int] = None) -> str:
        self._stop_requested = False
        while True:
            self.scheduler.run_to_quiescence()
            if self._stop_requested:
                return "stopped"
            if max_dispatches is not None and self.events_dispatched >= max_dispatches:
                return "budget"
            next_time = self.queue.peek_time()
            if next_time is None:
                return "quiescent"
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                return "horizon"
            entry = self.queue.pop_due()
            assert entry is not None
            self.clock.advance_to(entry.time)
            self.events_dispatched += 1
            obs = observe.observer
            if obs is None:
                entry.action()
            else:
                obs.fire_begin(entry)
                try:
                    entry.action()
                finally:
                    obs.fire_end(entry)
