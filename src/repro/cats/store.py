"""The per-replica storage engine: timestamped register values.

Every key maps to a ``(timestamp, writer_id, value)`` register record.  The
ABD layer only ever *advances* a record — a write is applied iff its
``(timestamp, writer_id)`` pair exceeds the stored one — which makes state
merges during view synchronization idempotent and order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..network.compact import Value
from .key import KeySpace


@dataclass(frozen=True, slots=True)
class Record:
    """One register record: value plus its logical write timestamp."""

    key: int
    timestamp: int
    writer: int
    value: Value

    @property
    def stamp(self) -> tuple[int, int]:
        return (self.timestamp, self.writer)


class LocalStore:
    """An in-memory register store with ring-interval extraction."""

    def __init__(self, key_space: KeySpace) -> None:
        self.key_space = key_space
        self._records: dict[int, Record] = {}
        self.applied = 0
        self.stale_rejected = 0

    def read(self, key: int) -> Optional[Record]:
        return self._records.get(key)

    def apply(self, record: Record) -> bool:
        """Store ``record`` iff it is newer than the current one."""
        current = self._records.get(record.key)
        if current is not None and record.stamp <= current.stamp:
            self.stale_rejected += 1
            return False
        self._records[record.key] = record
        self.applied += 1
        return True

    def apply_all(self, records: Iterable[Record]) -> int:
        return sum(1 for record in records if self.apply(record))

    def records_in_range(self, start: int, end: int) -> tuple[Record, ...]:
        """All records with keys in the wrap-around interval ``(start, end]``."""
        return tuple(
            record
            for key, record in self._records.items()
            if self.key_space.in_interval(key, start, end)
        )

    def drop_if(self, predicate) -> int:
        """Drop every record whose key satisfies ``predicate``; returns count."""
        doomed = [key for key in self._records if predicate(key)]
        for key in doomed:
            del self._records[key]
        return len(doomed)

    def drop_outside(self, start: int, end: int) -> int:
        """Garbage-collect records outside ``(start, end]``; returns count."""
        doomed = [
            key
            for key in self._records
            if not self.key_space.in_interval(key, start, end)
        ]
        for key in doomed:
            del self._records[key]
        return len(doomed)

    def snapshot(self) -> tuple[Record, ...]:
        """Every record, for section-2.6 state transfer."""
        return tuple(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    def status(self) -> dict:
        return {"keys": len(self._records), "applied": self.applied}
