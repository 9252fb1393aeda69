"""Hierarchical timer wheel: the near-future index of the event queue.

The simulation workload is dominated by short, cancel-heavy periodic
traffic — failure-detector pings, Cyclon shuffles, CATS stabilization — all
scheduled within a few seconds of *now*.  A binary heap pays O(log n)
Python-level comparisons per operation and cannot unlink a cancelled entry
before its deadline.  The wheel turns both into O(1) dictionary/bitmap
operations:

- virtual time is quantized into *ticks* (default 1/256 s); each level of
  the hierarchy covers 256 ticks of the level below, so three levels span
  ~18 simulated hours at full resolution near the cursor;
- a slot holds a dict mapping *exact float timestamps* to payloads, so
  quantization never reorders events — the front scan returns ``min()`` of
  the earliest occupied slot, which is exact;
- occupancy is one Python int bitmap per level; the next occupied slot is
  found with ``(mask >> start) & -(mask >> start)`` bit tricks, not a scan;
- entries beyond the top level fall back to a heap of *floats* (C-level
  comparisons), with dead timestamps tombstoned and the heap rebuilt once
  tombstones outnumber live entries.

Payload contract: the wheel stores one payload per distinct timestamp and
writes its location into the payload's writable ``loc`` attribute (an int;
``-1`` means the far heap) so ``remove`` is O(1) without an extra index.

Distinct from :mod:`repro.timer.wheel`, the *real-time* hashed wheel behind
``ThreadTimer``: this module indexes virtual time inside the simulation's
:class:`~repro.simulation.event_queue.EventQueue`.
"""

from __future__ import annotations

import heapq
from typing import Optional

#: log2 of slots per level: 256 slots, one byte of the tick counter each.
SLOT_BITS = 8
SLOTS = 1 << SLOT_BITS
_MASK = SLOTS - 1
#: wheel levels before falling back to the far-future heap.
LEVELS = 3
#: ticks per simulated second (tick size ~3.9 ms).
TICKS_PER_SECOND = 256


def _next_bit(mask: int, start: int) -> int:
    """Lowest set bit index >= ``start``, or -1."""
    shifted = mask >> start
    if not shifted:
        return -1
    return start + (shifted & -shifted).bit_length() - 1


class TimerWheel:
    """Three-level timer wheel over quantized virtual time, plus a far heap.

    The *cursor* is the tick of the last popped timestamp; it only moves
    forward.  Timestamps at or before the cursor (possible after a horizon
    advance) are clamped into the cursor's own slot — exact-float ordering
    inside the slot keeps them firing in the right order.
    """

    __slots__ = ("_slots", "_occ", "_cursor", "_far", "_far_map", "_far_dead", "_count")

    def __init__(self) -> None:
        self._slots: list[list[Optional[dict]]] = [
            [None] * SLOTS for _ in range(LEVELS)
        ]
        self._occ = [0] * LEVELS
        self._cursor = 0
        self._far: list[float] = []  # min-heap of timestamps (may hold tombstones)
        self._far_map: dict[float, object] = {}  # live far timestamps only
        self._far_dead = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------- placement

    def insert(self, time: float, payload) -> None:
        """Index ``payload`` under exact timestamp ``time`` (one per time)."""
        tick = int(time * TICKS_PER_SECOND)
        if tick < self._cursor:
            tick = self._cursor
        self._place(tick, time, payload)
        self._count += 1

    def _place(self, tick: int, time: float, payload) -> None:
        cursor = self._cursor
        if tick >> SLOT_BITS == cursor >> SLOT_BITS:
            level, slot = 0, tick & _MASK
        elif tick >> (2 * SLOT_BITS) == cursor >> (2 * SLOT_BITS):
            level, slot = 1, (tick >> SLOT_BITS) & _MASK
        elif tick >> (3 * SLOT_BITS) == cursor >> (3 * SLOT_BITS):
            level, slot = 2, (tick >> (2 * SLOT_BITS)) & _MASK
        else:
            payload.loc = -1
            self._far_map[time] = payload
            heapq.heappush(self._far, time)
            return
        cell = self._slots[level][slot]
        if cell is None:
            cell = self._slots[level][slot] = {}
        cell[time] = payload
        self._occ[level] |= 1 << slot
        payload.loc = (level << SLOT_BITS) | slot

    def remove(self, time: float, payload) -> None:
        """Unlink the payload stored under ``time`` (O(1))."""
        loc = payload.loc
        if loc < 0:
            del self._far_map[time]
            self._far_dead += 1
            # Lazy compaction: rebuild once tombstones outnumber live far
            # entries, so cancelled debris never dominates the heap.
            if self._far_dead > 64 and self._far_dead * 2 > len(self._far):
                self._far = list(self._far_map)
                heapq.heapify(self._far)
                self._far_dead = 0
        else:
            level, slot = loc >> SLOT_BITS, loc & _MASK
            cell = self._slots[level][slot]
            del cell[time]
            if not cell:
                self._occ[level] &= ~(1 << slot)
        self._count -= 1

    # ------------------------------------------------------------ front scan

    def _front(self) -> int:
        """Cascade until level 0 holds the earliest entry; return its slot
        index, or -1 when the wheel is empty.  Advances the cursor."""
        while True:
            slot = _next_bit(self._occ[0], self._cursor & _MASK)
            if slot >= 0:
                return slot
            if self._cascade(1):
                continue
            if self._cascade(2):
                continue
            if self._pull_far():
                continue
            return -1

    def _cascade(self, level: int) -> bool:
        """Move the next occupied slot of ``level`` down; False if none."""
        shift = level * SLOT_BITS
        slot = _next_bit(self._occ[level], (self._cursor >> shift) & _MASK)
        if slot < 0:
            return False
        cell = self._slots[level][slot]
        self._slots[level][slot] = None
        self._occ[level] &= ~(1 << slot)
        # Jump the cursor to the start of that slot's window: everything
        # earlier is provably empty (the cursor trails the global minimum).
        above = self._cursor >> (shift + SLOT_BITS)
        self._cursor = ((above << SLOT_BITS) | slot) << shift
        for time, payload in cell.items():
            self._place(int(time * TICKS_PER_SECOND), time, payload)
        return True

    def _pull_far(self) -> bool:
        """Reindex the earliest far-heap window into the wheel; False if empty."""
        far, far_map = self._far, self._far_map
        while far and far[0] not in far_map:
            heapq.heappop(far)  # tombstone of a removed timestamp
            self._far_dead -= 1
        if not far:
            return False
        top_shift = LEVELS * SLOT_BITS
        first_tick = int(far[0] * TICKS_PER_SECOND)
        window = first_tick >> top_shift
        self._cursor = first_tick
        while far:
            time = far[0]
            if time not in far_map:
                heapq.heappop(far)
                self._far_dead -= 1
                continue
            if int(time * TICKS_PER_SECOND) >> top_shift != window:
                break
            heapq.heappop(far)
            self._place(int(time * TICKS_PER_SECOND), time, far_map.pop(time))
        return True

    def pop(self, until: Optional[float] = None):
        """Remove and return ``(time, payload)`` for the earliest timestamp.

        With ``until`` given, a minimum beyond it is *peeked, not popped*:
        the result is ``(time, None)`` and the wheel is unchanged.  This
        folds the run loop's peek-then-pop pair into one front scan.
        """
        slot = self._front()
        if slot < 0:
            return None
        cell = self._slots[0][slot]
        time = min(cell)
        if until is not None and time > until:
            return time, None
        payload = cell.pop(time)
        if not cell:
            self._occ[0] &= ~(1 << slot)
        tick = int(time * TICKS_PER_SECOND)
        if tick > self._cursor:
            self._cursor = tick
        self._count -= 1
        return time, payload

    # ------------------------------------------------------------ inspection

    def stats(self) -> dict:
        """Internal sizes, for tests pinning boundedness under churn."""
        return {
            "count": self._count,
            "far_heap": len(self._far),
            "far_live": len(self._far_map),
            "far_dead": self._far_dead,
        }
