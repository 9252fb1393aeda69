"""The discrete-event queue driving simulated time.

Everything time-dependent in simulation mode — timer expiries, message
deliveries, scenario operations — is an entry in this queue.  Entries at
equal timestamps fire in insertion order, which (together with the FIFO
component scheduler and the seeded RNG) makes whole-system simulation fully
deterministic and reproducible.

Same-timestamp entries share one FIFO *bucket*; buckets are indexed by a
hierarchical :class:`~repro.simulation.wheel.TimerWheel`; cancellation
unlinks in O(1); ``__len__``/``__bool__`` read a live-entry counter; and
``pop_batch`` hands the whole earliest bucket to the run loop in one
operation.

Two opt-in hooks support the concurrency analysis in
:mod:`repro.analysis.race` (both None by default, costing one is-None
test):

- every (re)scheduled entry goes to the :mod:`repro.core.observe` seam,
  where the race tracker stamps it with the scheduling execution's
  vector clock (the schedule→fire happens-before edge);
- the per-queue ``picker`` attribute lets a schedule explorer choose
  *which* of several same-timestamp entries fires next — insertion order
  among equal timestamps is an artifact of the implementation, and
  permuting it is exactly how order-dependent bugs are surfaced.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from ..core import observe
from .wheel import TimerWheel


class ScheduledEntry:
    """One future action in virtual time."""

    __slots__ = ("time", "sequence", "action", "cancelled", "stamp", "bucket")

    def __init__(self, time: float, sequence: int, action: Callable[[], None]) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        #: vector-clock stamp of the scheduling execution (race analysis
        #: only; None on the default path).
        self.stamp = None
        #: owning same-timestamp bucket while queued in an
        #: :class:`EventQueue`; None once popped.
        self.bucket = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        bucket = self.bucket
        if bucket is not None:
            bucket.queue._entry_cancelled(bucket)


class _TimeBucket:
    """All entries scheduled at one exact timestamp, in insertion order.

    ``live`` counts the entries not yet cancelled; ``loc`` is written by
    the wheel.
    """

    __slots__ = ("time", "entries", "live", "queue", "loc")

    def __init__(self, time: float, queue: "EventQueue") -> None:
        self.time = time
        self.entries: list[ScheduledEntry] = []
        self.live = 0
        self.queue = queue
        self.loc = 0


class EventQueue:
    """Deterministic timed-action queue: wheel-indexed FIFO time buckets."""

    def __init__(self) -> None:
        self._wheel = TimerWheel()
        self._buckets: dict[float, _TimeBucket] = {}
        self._sequence = itertools.count()
        self._live = 0
        self.scheduled_total = 0
        self.fired_total = 0
        #: Optional same-timestamp chooser (schedule exploration), consulted
        #: by ``Simulation.run``: called with the list of non-cancelled
        #: entries sharing the earliest timestamp, returns the index of the
        #: entry to fire.  None (the default) keeps strict insertion order.
        self.picker: Optional[Callable[[Sequence[ScheduledEntry]], int]] = None

    # ------------------------------------------------------------- scheduling

    def schedule(self, at: float, action: Callable[[], None]) -> ScheduledEntry:
        """Schedule ``action`` at absolute virtual time ``at``."""
        entry = ScheduledEntry(at, next(self._sequence), action)
        obs = observe.observer
        if obs is not None:
            obs.scheduled(entry)
        # _append, inlined: this is the busiest write path in simulation.
        bucket = self._buckets.get(at)
        if bucket is None:
            bucket = _TimeBucket(at, self)
            self._buckets[at] = bucket
            self._wheel.insert(at, bucket)
        bucket.entries.append(entry)
        bucket.live += 1
        entry.bucket = bucket
        self._live += 1
        self.scheduled_total += 1
        return entry

    def reschedule(self, entry: ScheduledEntry, at: float) -> ScheduledEntry:
        """Re-arm a fired entry at a new time, reusing the object.

        Allocation-free re-arm for periodic timers: the entry gets a fresh
        sequence number (insertion order among equal timestamps is global)
        and is stamped again, exactly as a newly scheduled entry would be —
        each period is a distinct schedule→fire happens-before edge.
        """
        if entry.bucket is not None:
            raise ValueError("cannot reschedule an entry that is still queued")
        entry.time = at
        entry.sequence = next(self._sequence)
        entry.cancelled = False
        entry.stamp = None
        obs = observe.observer
        if obs is not None:
            obs.scheduled(entry)
        self._append(entry)
        return entry

    def _append(self, entry: ScheduledEntry) -> None:
        at = entry.time
        bucket = self._buckets.get(at)
        if bucket is None:
            bucket = _TimeBucket(at, self)
            self._buckets[at] = bucket
            self._wheel.insert(at, bucket)
        bucket.entries.append(entry)
        bucket.live += 1
        entry.bucket = bucket
        self._live += 1
        self.scheduled_total += 1

    # ----------------------------------------------------------- cancellation

    def _entry_cancelled(self, bucket: _TimeBucket) -> None:
        bucket.live -= 1
        self._live -= 1
        if bucket.live == 0:
            # Last live entry gone: unlink the whole bucket now.  Cancelled
            # debris (and the component state its actions close over) is
            # released immediately instead of surviving to its deadline.
            del self._buckets[bucket.time]
            self._wheel.remove(bucket.time, bucket)
            for entry in bucket.entries:
                entry.bucket = None
            bucket.entries = []
        elif bucket.live * 2 < len(bucket.entries):
            # Compact once tombstones outnumber live entries in the bucket.
            survivors = []
            for entry in bucket.entries:
                if entry.cancelled:
                    entry.bucket = None
                else:
                    survivors.append(entry)
            bucket.entries = survivors

    # ---------------------------------------------------------------- popping

    def pop_batch(self, until: Optional[float] = None):
        """Pop every live entry at the earliest timestamp, in FIFO order.

        Returns ``(time, entries)``, or None if the queue is empty, or
        ``(time, None)`` — *without popping* — when ``until`` is given and
        the earliest timestamp lies beyond it.  The entries are detached: a
        cancellation between pop and dispatch only flips ``entry.cancelled``
        (the run loop re-checks it per entry, so an entry cancelled by an
        earlier entry of its own batch never fires).
        """
        popped = self._wheel.pop(until)
        if popped is None:
            return None
        time, bucket = popped
        if bucket is None:
            return time, None
        del self._buckets[time]
        entries = bucket.entries
        if bucket.live == len(entries):
            batch = entries
        else:
            batch = [e for e in entries if not e.cancelled]
        self._live -= bucket.live
        for entry in entries:
            entry.bucket = None
        bucket.entries = []
        return time, batch

    # ------------------------------------------------------------- inspection

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def stats(self) -> dict:
        """Internal sizes, for tests pinning boundedness under churn."""
        stats = self._wheel.stats()
        stats["live"] = self._live
        stats["buckets"] = len(self._buckets)
        return stats


def make_event_queue() -> EventQueue:
    """A fresh, empty event queue (what :class:`Simulation` is built on)."""
    return EventQueue()
