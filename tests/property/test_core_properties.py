"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cats.key import KeySpace
from repro.cats.store import LocalStore, Record
from repro.simulation.event_queue import EventQueue

keys = st.integers(min_value=0, max_value=(1 << 16) - 1)
space = KeySpace(bits=16)


class TestKeySpaceProperties:
    @given(keys, keys, keys)
    def test_interval_partition(self, key, start, end):
        """(start, end] and (end, start] partition the ring minus endpoints."""
        if start == end:
            assert space.in_interval(key, start, end)
            return
        in_first = space.in_interval(key, start, end)
        in_second = space.in_interval(key, end, start)
        if key == start:
            assert not in_first and in_second
        elif key == end:
            assert in_first and not in_second
        else:
            assert in_first != in_second

    @given(keys, keys)
    def test_distance_antisymmetry(self, a, b):
        if a != b:
            assert space.distance(a, b) + space.distance(b, a) == space.size
        else:
            assert space.distance(a, b) == 0

    @given(keys, keys)
    def test_end_of_interval_always_inside(self, start, end):
        assert space.in_interval(end, start, end) or start == end

    @given(st.text())
    def test_hash_in_range(self, raw):
        assert 0 <= space.hash_key(raw) < space.size


records = st.builds(
    Record,
    key=keys,
    timestamp=st.integers(min_value=0, max_value=50),
    writer=st.integers(min_value=0, max_value=10),
    value=st.integers(),
)


class TestStoreProperties:
    @given(st.lists(records, max_size=60))
    def test_store_converges_to_max_stamp_per_key(self, batch):
        store = LocalStore(space)
        store.apply_all(batch)
        for record in batch:
            stored = store.read(record.key)
            expected = max(
                (r for r in batch if r.key == record.key), key=lambda r: r.stamp
            )
            assert stored.stamp == expected.stamp

    @given(st.lists(records, max_size=40), st.randoms())
    def test_apply_order_is_irrelevant(self, batch, rng):
        ordered, shuffled = LocalStore(space), LocalStore(space)
        ordered.apply_all(batch)
        batch_copy = list(batch)
        rng.shuffle(batch_copy)
        shuffled.apply_all(batch_copy)
        assert {k: r.stamp for k, r in ordered._records.items()} == {
            k: r.stamp for k, r in shuffled._records.items()
        }

    @given(st.lists(records, max_size=40), keys, keys)
    def test_range_extraction_matches_membership(self, batch, start, end):
        store = LocalStore(space)
        store.apply_all(batch)
        extracted = {r.key for r in store.records_in_range(start, end)}
        for record in batch:
            assert (record.key in extracted) == space.in_interval(
                record.key, start, end
            )


def pop_all(queue):
    """Every live entry, in firing order (one ``pop_batch`` per timestamp)."""
    entries = []
    while (popped := queue.pop_batch()) is not None:
        entries.extend(popped[1])
    return entries


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=80))
    def test_pop_order_is_nondecreasing(self, times):
        queue = EventQueue()
        for t in times:
            queue.schedule(t, lambda: None)
        popped = [entry.time for entry in pop_all(queue)]
        assert popped == sorted(popped)
        assert len(popped) == len(times)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False), st.booleans()),
            max_size=60,
        )
    )
    def test_cancelled_entries_never_fire(self, entries):
        queue = EventQueue()
        scheduled = []
        for t, cancel in entries:
            entry = queue.schedule(t, lambda: None)
            scheduled.append((entry, cancel))
        for entry, cancel in scheduled:
            if cancel:
                entry.cancel()
        fired = pop_all(queue)
        assert not any(entry.cancelled for entry in fired)
        assert len(fired) == sum(1 for _e, cancel in scheduled if not cancel)

    @given(st.lists(st.just(1.0), min_size=2, max_size=20))
    def test_equal_times_fire_in_insertion_order(self, times):
        queue = EventQueue()
        order = []
        entries = [
            queue.schedule(t, (lambda i=i: order.append(i))) for i, t in enumerate(times)
        ]
        for entry in pop_all(queue):
            entry.action()
        assert order == list(range(len(times)))
