"""Unit tests for the hierarchical timer wheel indexing virtual time.

The wheel is the near-future index of the simulation
:class:`~repro.simulation.event_queue.EventQueue`; these tests pin its
ordering, the peek-not-pop ``until`` contract, O(1) removal, far-heap
compaction under cancel churn, and cursor behaviour across level cascades.
"""

from __future__ import annotations

import random

import pytest

from repro.simulation.wheel import LEVELS, SLOT_BITS, TICKS_PER_SECOND, TimerWheel

#: Seconds covered by the three wheel levels before the far heap kicks in.
WHEEL_SPAN_S = (1 << (LEVELS * SLOT_BITS)) / TICKS_PER_SECOND


class Payload:
    """Minimal object honouring the wheel's writable-``loc`` contract."""

    __slots__ = ("loc", "name")

    def __init__(self, name) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Payload({self.name!r})"


def drain(wheel: TimerWheel) -> list[float]:
    times = []
    while True:
        popped = wheel.pop()
        if popped is None:
            return times
        times.append(popped[0])


def test_pops_in_time_order_across_levels_and_far_heap():
    rng = random.Random(42)
    wheel = TimerWheel()
    times = set()
    # Level 0 (sub-second), level 1/2 windows, and far-future beyond the
    # wheel span — all interleaved.
    while len(times) < 400:
        times.add(rng.uniform(0.0, 2.0))
        times.add(rng.uniform(2.0, WHEEL_SPAN_S * 0.9))
        times.add(rng.uniform(WHEEL_SPAN_S * 1.5, WHEEL_SPAN_S * 40))
    for t in times:
        wheel.insert(t, Payload(t))
    assert len(wheel) == len(times)
    assert drain(wheel) == sorted(times)
    assert len(wheel) == 0


def test_pop_until_peeks_without_popping():
    wheel = TimerWheel()
    wheel.insert(5.0, Payload("a"))
    assert wheel.pop(until=4.0) == (5.0, None)
    assert len(wheel) == 1  # unchanged: peeked, not popped
    time, payload = wheel.pop(until=5.0)
    assert (time, payload.name) == (5.0, "a")
    assert wheel.pop(until=100.0) is None


def test_remove_unlinks_everywhere():
    wheel = TimerWheel()
    payloads = {}
    times = [0.5, 1.5, WHEEL_SPAN_S * 3]  # level 0, level 0/1, far heap
    for t in times:
        payloads[t] = Payload(t)
        wheel.insert(t, payloads[t])
    wheel.remove(0.5, payloads[0.5])
    wheel.remove(WHEEL_SPAN_S * 3, payloads[WHEEL_SPAN_S * 3])
    assert len(wheel) == 1
    assert drain(wheel) == [1.5]


def test_far_heap_compacts_under_cancel_churn():
    """Cancelled far-future debris must not accumulate in the heap."""
    wheel = TimerWheel()
    base = WHEEL_SPAN_S * 10
    live = Payload("keep")
    wheel.insert(base + 1e6, live)
    for i in range(5000):
        p = Payload(i)
        t = base + float(i)
        wheel.insert(t, p)
        wheel.remove(t, p)
    stats = wheel.stats()
    assert stats["count"] == 1
    assert stats["far_live"] == 1
    # Lazy compaction bounds tombstones: dead may never exceed the rebuild
    # threshold (64) plus half the heap; with one live entry that caps the
    # heap at a small constant rather than the 5000 cancellations.
    assert stats["far_heap"] < 200, stats
    assert drain(wheel) == [base + 1e6]


def test_insert_before_cursor_clamps_and_still_fires():
    wheel = TimerWheel()
    wheel.insert(10.0, Payload("late"))
    assert wheel.pop()[0] == 10.0  # cursor is now at t=10
    wheel.insert(2.0, Payload("early"))  # in the past of the cursor
    wheel.insert(10.5, Payload("next"))
    assert [t for t in drain(wheel)] == [2.0, 10.5]


def test_exact_float_ordering_within_one_tick():
    """Quantization groups timestamps per tick; ordering stays exact."""
    wheel = TimerWheel()
    tick = 1.0 / TICKS_PER_SECOND
    times = [7 * tick + tick * frac for frac in (0.75, 0.25, 0.5, 0.0)]
    for t in times:
        wheel.insert(t, Payload(t))
    assert drain(wheel) == sorted(times)


def test_stats_shape():
    wheel = TimerWheel()
    stats = wheel.stats()
    assert set(stats) == {"count", "far_heap", "far_live", "far_dead"}
    assert stats["count"] == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_interleaved_insert_remove_pop(seed):
    """Differential check against a sorted reference under mixed operations."""
    rng = random.Random(seed)
    wheel = TimerWheel()
    reference: dict[float, Payload] = {}
    popped: list[float] = []
    floor = 0.0  # pops only move forward; inserts stay >= the last pop
    for _ in range(2000):
        op = rng.random()
        if op < 0.55 or not reference:
            t = floor + rng.uniform(0.0, WHEEL_SPAN_S * 2)
            if t in reference:
                continue
            p = Payload(t)
            reference[t] = p
            wheel.insert(t, p)
        elif op < 0.8:
            t = rng.choice(list(reference))
            wheel.remove(t, reference.pop(t))
        else:
            time, payload = wheel.pop()
            expected = min(reference)
            assert time == expected and payload is reference.pop(expected)
            popped.append(time)
            floor = time
    assert popped == sorted(popped)
    assert drain(wheel) == sorted(reference)
