"""Runtime sanitizer: dynamic enforcement of the model's safety contract.

Opt-in (``REPRO_SANITIZE=1``, :func:`enable`, the :func:`sanitized`
context manager, or ``ComponentHarness(..., sanitize=True)``).  While
active, two invariants the paper takes as axioms (§2.1, §3) are enforced
at the exact moment they are broken:

**S001 — events are immutable after triggering.**  ``dispatch.trigger``
seals every event; the debug ``__setattr__``/``__delattr__`` guard on
:class:`~repro.core.event.Event` then raises
:class:`~repro.core.errors.EventMutationError` on any later mutation.
Fan-out shares one event object among all subscribers, so a handler that
mutates "its" event is racing every other subscriber.

**S002 — handlers of one component are mutually exclusive.**  Handler
execution is tagged with its worker thread; entering a component whose
handlers are already running (same thread: illegal recursion into the
execution machinery; different thread: a scheduler-bypass race) raises
:class:`~repro.core.errors.ReentrancyError`.

The sanitizer is an observer on the :mod:`repro.core.observe` seam, plus
an ``Event`` mutation guard that exists only while it is on — disabling
it removes all cost (``benchmarks/bench_observer_overhead.py`` checks the
seam is empty and measures the on/off round trip).  It composes with
race tracking and the simulation profiler.
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from ..core import event as event_mod
from ..core import observe
from ..core.errors import EventMutationError, ReentrancyError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.component import ComponentCore, WorkItem
    from ..core.event import Event

_ENV_FLAG = "REPRO_SANITIZE"


class _ExecutionMonitor(observe.Observer):
    """Seals triggered events and tracks which thread is executing each
    component's handlers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active: dict[int, tuple[str, str]] = {}  # id(core) -> (name, thread)
        self.sealed_ids: set[int] = set()
        self.refcount = 0

    def triggered(self, event: "Event") -> None:
        """Mark ``event`` as shared: any later mutation is S001."""
        key = id(event)
        if key in self.sealed_ids:
            return
        self.sealed_ids.add(key)
        try:
            # Drop the id when the event dies so ids can be reused safely.
            weakref.finalize(event, self.sealed_ids.discard, key)
        except TypeError:  # pragma: no cover - all Events are weakref-able
            pass

    def begin(self, core: "ComponentCore", item: "WorkItem") -> None:
        me = threading.current_thread().name
        with self._lock:
            previous = self._active.get(id(core))
            if previous is not None:
                _, other_thread = previous
                if other_thread == me:
                    raise ReentrancyError(
                        f"[S002] handlers of {core.name} re-entered on thread "
                        f"{me!r}: handler code must never invoke the execution "
                        f"machinery recursively"
                    )
                raise ReentrancyError(
                    f"[S002] handlers of {core.name} executing concurrently on "
                    f"threads {other_thread!r} and {me!r}: the scheduler's "
                    f"mutual-exclusion guarantee was bypassed"
                )
            self._active[id(core)] = (core.name, me)

    def end(self, core: "ComponentCore", item: "WorkItem") -> None:
        me = threading.current_thread().name
        with self._lock:
            entry = self._active.get(id(core))
            if entry is not None and entry[1] == me:
                del self._active[id(core)]

    def current_component(self) -> Optional[str]:
        """The innermost component executing on this thread, if any."""
        me = threading.current_thread().name
        with self._lock:
            for name, thread in reversed(self._active.values()):
                if thread == me:
                    return name
        return None


_state: Optional[_ExecutionMonitor] = None
_state_lock = threading.Lock()


def is_enabled() -> bool:
    return _state is not None


def enable() -> None:
    """Turn the sanitizer on (refcounted; pair every call with disable())."""
    global _state
    with _state_lock:
        if _state is None:
            _state = _ExecutionMonitor()
            observe.attach(_state)
            event_mod._install_mutation_guard(_check_mutation)
        _state.refcount += 1


def disable() -> None:
    """Undo one enable(); the last disable detaches the sanitizer."""
    global _state
    with _state_lock:
        if _state is None:
            return
        _state.refcount -= 1
        if _state.refcount <= 0:
            observe.detach(_state)
            event_mod._remove_mutation_guard()
            _state = None


@contextmanager
def sanitized() -> Iterator[None]:
    """``with sanitized():`` — sanitizer active for the block."""
    enable()
    try:
        yield
    finally:
        disable()


def activate_from_env() -> bool:
    """Enable the sanitizer when ``REPRO_SANITIZE`` is set truthy.

    Called once at ``repro`` import; the returned flag says whether the
    environment activated sanitize mode for the whole process.
    """
    if os.environ.get(_ENV_FLAG, "").strip().lower() in ("1", "true", "on", "yes"):
        enable()
        return True
    return False


# --------------------------------------------------------- mutation guard


def _check_mutation(event: "Event", name: str, op: str) -> None:
    """Event guard hook: raise when a sealed event is mutated."""
    state = _state
    if state is None or id(event) not in state.sealed_ids:
        return
    where = state.current_component()
    context = f" in a handler of {where}" if where else ""
    raise EventMutationError(
        f"[S001] attribute {name!r} of {event!r} {op} after the event was "
        f"triggered{context}: delivered events are shared immutable values "
        f"(copy-on-write instead)"
    )
