"""Unit tests for the wheel-backed simulation event queue.

Pins O(1) live-entry ``len``/``bool``, immediate unlinking of cancelled
entries, lazy bucket compaction, batched popping (``pop_batch``),
allocation-free ``reschedule`` and the ``scheduled`` observer hook.
(The ``picker`` hook is consulted by the run loop: see
``test_simulation_api.py``.)
"""

from __future__ import annotations

import pytest

from repro.core import observe
from repro.simulation.event_queue import EventQueue, make_event_queue


def nop() -> None:
    pass


def drain(queue):
    """Fire everything, one ``pop_batch`` per timestamp."""
    while (popped := queue.pop_batch()) is not None:
        for entry in popped[1]:
            entry.action()


# ------------------------------------------------------------------- ordering


def test_fifo_within_equal_timestamps():
    queue = make_event_queue()
    assert isinstance(queue, EventQueue)
    fired = []
    for name in "abc":
        queue.schedule(1.0, lambda name=name: fired.append(name))
    queue.schedule(0.5, lambda: fired.append("first"))
    drain(queue)
    assert fired == ["first", "a", "b", "c"]


# -------------------------------------------------------- live-entry counting


def test_len_is_live_count_not_debris():
    queue = EventQueue()
    entries = [queue.schedule(float(i % 3), nop) for i in range(30)]
    assert len(queue) == 30 and bool(queue)
    for entry in entries[:20]:
        entry.cancel()
    assert len(queue) == 10
    for entry in entries[20:]:
        entry.cancel()
    assert len(queue) == 0 and not queue
    # Cancellation unlinked everything: no buckets, empty wheel.
    stats = queue.stats()
    assert stats["live"] == 0
    assert stats["buckets"] == 0
    assert stats["count"] == 0
    assert stats["far_live"] == 0
    assert queue.pop_batch() is None


def test_cancel_is_idempotent():
    queue = EventQueue()
    entry = queue.schedule(1.0, nop)
    entry.cancel()
    entry.cancel()
    assert len(queue) == 0


def test_bucket_compaction_under_partial_cancellation():
    """Cancelled tombstones inside a bucket are compacted away lazily."""
    queue = EventQueue()
    entries = [queue.schedule(1.0, nop) for _ in range(100)]
    bucket = entries[0].bucket
    for entry in entries[:90]:
        entry.cancel()
    assert len(queue) == 10
    assert len(bucket.entries) <= 20, "tombstones should have been compacted"
    time, batch = queue.pop_batch()
    assert time == 1.0
    assert [e.sequence for e in batch] == [e.sequence for e in entries[90:]]


def test_bounded_under_far_future_schedule_cancel_churn():
    """A schedule/cancel storm leaves no unbounded debris anywhere."""
    queue = EventQueue()
    keeper = queue.schedule(2_000_000.0, nop)
    for i in range(10_000):
        queue.schedule(1_000_000.0 + i, nop).cancel()
    stats = queue.stats()
    assert len(queue) == 1
    assert stats["buckets"] == 1
    assert stats["far_heap"] < 500, stats
    assert not keeper.cancelled


# -------------------------------------------------------------------- popping


def test_pop_batch_fifo_and_cancellation():
    queue = EventQueue()
    entries = [queue.schedule(1.0, nop) for _ in range(4)]
    entries[1].cancel()
    queue.schedule(2.0, nop)
    time, batch = queue.pop_batch()
    assert time == 1.0
    assert batch == [entries[0], entries[2], entries[3]]
    assert all(e.bucket is None for e in entries)
    assert len(queue) == 1


def test_pop_batch_until_peeks_without_popping():
    queue = EventQueue()
    queue.schedule(5.0, nop)
    assert queue.pop_batch(until=4.0) == (5.0, None)
    assert len(queue) == 1  # nothing was consumed
    time, batch = queue.pop_batch(until=5.0)
    assert time == 5.0 and len(batch) == 1
    assert queue.pop_batch() is None


def test_pop_batch_skips_tombstones():
    queue = EventQueue()
    a = queue.schedule(1.0, nop)
    b = queue.schedule(1.0, nop)
    a.cancel()
    assert queue.pop_batch() == (1.0, [b])
    assert queue.pop_batch() is None


# ---------------------------------------------------------------- reschedule


def test_reschedule_reuses_the_entry():
    queue = EventQueue()
    entry = queue.schedule(1.0, nop)
    first_sequence = entry.sequence
    time, (popped,) = queue.pop_batch()
    assert popped is entry
    again = queue.reschedule(entry, 3.0)
    assert again is entry
    assert entry.time == 3.0
    assert entry.sequence > first_sequence  # insertion order stays global
    assert not entry.cancelled
    assert queue.pop_batch() == (3.0, [entry])


def test_reschedule_rejects_queued_entries():
    queue = EventQueue()
    entry = queue.schedule(1.0, nop)
    with pytest.raises(ValueError):
        queue.reschedule(entry, 2.0)


# ------------------------------------------------------------- analysis hooks


def test_scheduled_hook_runs_on_schedule_and_reschedule():
    stamped = []

    class Stamper(observe.Observer):
        def scheduled(self, entry):
            stamped.append(entry)

    stamper = Stamper()
    observe.attach(stamper)
    try:
        queue = EventQueue()
        entry = queue.schedule(1.0, nop)
        assert stamped == [entry]
        _, (popped,) = queue.pop_batch()
        queue.reschedule(popped, 2.0)
        assert len(stamped) == 2
    finally:
        observe.detach(stamper)
    assert observe.observer is None


# ------------------------------------------------------------------- counters


def test_scheduled_total_counts_schedules_and_reschedules():
    queue = EventQueue()
    for _ in range(5):
        queue.schedule(1.0, nop)
    late = queue.schedule(2.0, nop)
    assert queue.scheduled_total == 6
    late.cancel()  # a cancelled entry was still scheduled
    _, batch = queue.pop_batch()
    queue.reschedule(batch[0], 3.0)
    assert queue.scheduled_total == 7
    # fired_total is maintained by the run loop (see test_simulation_api.py).
    assert queue.fired_total == 0
