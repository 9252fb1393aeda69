"""Execution tracing: observe every handler execution in a system.

The paper leans on two observability mechanisms — whole-system monitoring
(section 4.1) and reproducible simulation for *stepped debugging* (section
3).  A :class:`Tracer` complements both: attached to a ComponentSystem it
records ``(time, component, event type)`` for every executed work item,
giving deterministic, diffable execution traces in simulation and
best-effort traces in production.

A tracer is an observer on :mod:`repro.core.observe`: ``system.tracer =
tracer`` attaches it, and it records that system's executions only;
``system.tracer = None``, ``shutdown()`` or the system's collection
detach it, so an untraced run pays for no tracer.

``record`` is safe under concurrent work-stealing workers: appends and the
``recorded``/``dropped`` counters are serialized by a lock, so counts are
exact and no entry is lost to a torn read-modify-write.

Usage::

    tracer = Tracer(capacity=10_000)
    system.tracer = tracer              # or simulation.system.tracer = ...
    ...
    for entry in tracer.entries:
        print(entry)
    tracer.summary()                    # {event type name: count}
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..core import observe


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One executed event."""

    time: float
    component: str
    event_type: str

    def __str__(self) -> str:
        return f"[{self.time:12.6f}] {self.component:<30} {self.event_type}"


class Tracer(observe.Observer):
    """Bounded in-memory trace of one system's handler executions."""

    system_bound = True

    def __init__(
        self,
        capacity: int = 100_000,
        event_filter: Optional[Callable[[str, str], bool]] = None,
    ) -> None:
        self.entries: deque[TraceEntry] = deque(maxlen=capacity)
        self.event_filter = event_filter
        self.recorded = 0
        self.dropped = 0
        self._lock = threading.Lock()
        self._system: Optional[weakref.ref] = None

    def bind(self, system) -> None:
        """Attach to the seam for ``system`` (``system.tracer = self``),
        which is held weakly and detaches the tracer when collected."""
        observe.attach(self)  # raises while this tracer traces a system
        self._system = weakref.ref(system, lambda _ref: observe.detach(self))

    def unbind(self) -> None:
        self._system = None  # drops the collection callback
        observe.detach(self)

    def begin(self, core, item) -> None:
        system = core.system
        if system.tracer is self:
            self.record(system.clock.now(), core.name, type(item.event).__name__)

    def record(self, time: float, component: str, event_type: str) -> None:
        if self.event_filter is not None and not self.event_filter(
            component, event_type
        ):
            with self._lock:
                self.dropped += 1
            return
        with self._lock:
            self.recorded += 1
            self.entries.append(TraceEntry(time, component, event_type))

    def summary(self) -> dict[str, int]:
        """Event-type histogram of the retained trace."""
        return dict(Counter(entry.event_type for entry in self.entries))

    def by_component(self) -> dict[str, int]:
        return dict(Counter(entry.component for entry in self.entries))

    def fingerprint(self) -> str:
        """Stable, order-sensitive digest of the retained trace.

        A blake2b hex digest over a canonical encoding of every entry:
        independent of ``PYTHONHASHSEED`` and of the process, so two runs —
        or two *machines* — can compare determinism-check fingerprints
        byte-for-byte.  ``repr`` of a float is exact, so virtual-time
        differences down to the last ulp change the digest.
        """
        digest = hashlib.blake2b(digest_size=16)
        for entry in self.entries:
            digest.update(
                f"{entry.time!r}|{entry.component}|{entry.event_type}\n".encode()
            )
        return digest.hexdigest()

    def fingerprint_fast(self) -> int:
        """Order-sensitive ``hash()`` of the retained trace.

        Cheaper than :meth:`fingerprint` but salted by ``PYTHONHASHSEED``:
        only comparable within one process.  Prefer :meth:`fingerprint`
        for determinism checks.
        """
        return hash(tuple((e.time, e.component, e.event_type) for e in self.entries))

    def clear(self) -> None:
        with self._lock:
            self.entries.clear()
            self.recorded = 0
            self.dropped = 0
