"""The runtime's one instrumentation seam.

Every hook site reads :data:`observer` once and tests it against
``None``.  The slot holds nothing, the one attached observer, or a
fan-out over several, which runs the closing hooks (``end``, ``fire_end``)
in reverse attach order so bracketing observers nest without knowing
about each other.  A site calls both halves of a pair on what it read.

An observer that belongs to one component system (a tracer, set with
``system.tracer = ...``) detaches itself when that system is collected.
A system dropped without detaching it lives on in reference cycles until
the collector runs, so while one is attached, :func:`attach` and
:func:`detach` collect garbage first: the slot they publish holds no
observer of a dropped system.
"""

from __future__ import annotations

import gc
import threading
from typing import Optional


def _ignore(self, *args) -> None:
    """A hook nobody overrode: observe nothing."""


class Observer:
    """Base class of seam clients; every hook is a no-op until overridden.

    ``triggered(event)`` precedes a trigger's delivery; ``begin``/``end``
    ``(core, item)`` bracket the execution of one work item, also one whose
    handler raised; ``channel_op(op, channel, events)`` reports a channel
    ``hold``, ``resume``, ``release`` (one held event flushed), ``unplug``
    or ``plug``; ``transferred(old, new)`` a ``replace_component``;
    ``scheduled(entry)`` an event-queue (re)schedule; and ``fire_begin``/
    ``fire_end(entry)`` bracket a timed dispatch of the simulation loop.
    """

    triggered = begin = end = channel_op = transferred = _ignore
    scheduled = fire_begin = fire_end = _ignore
    #: True for an observer of one component system (see the module doc).
    system_bound = False


def _each(hook: str, reverse: bool = False):
    def fan_out(self, *args) -> None:
        for obs in reversed(self.observers) if reverse else self.observers:
            getattr(obs, hook)(*args)

    return fan_out


class _FanOut(Observer):
    """Several attached observers behind the one slot.  A ``begin`` that
    raises (only the sanitizer's S002 does) leaves those before it open:
    the error ends the run."""

    def __init__(self, observers: tuple[Observer, ...]) -> None:
        self.observers = observers

    triggered = _each("triggered")
    begin = _each("begin")
    end = _each("end", reverse=True)
    channel_op = _each("channel_op")
    transferred = _each("transferred")
    scheduled = _each("scheduled")
    fire_begin = _each("fire_begin")
    fire_end = _each("fire_end", reverse=True)


#: The slot every hook site reads: None, one observer, or a fan-out.
observer: Optional[Observer] = None

_attached: tuple[Observer, ...] = ()
#: Reentrant: a tracer detaches itself from a garbage-collector callback,
#: which may run inside the allocations of an attach or detach holding it.
_lock = threading.RLock()


def attach(obs: Observer) -> None:
    """Add ``obs`` to the seam, after every observer already attached."""
    _collect_dropped_systems(obs)
    with _lock:
        if obs in _attached:
            raise ValueError(f"{obs!r} is already attached")
        _publish(_attached + (obs,))


def detach(obs: Observer) -> None:
    """Remove ``obs`` from the seam (a no-op when it is not attached)."""
    _collect_dropped_systems(obs)
    with _lock:
        _publish(tuple(o for o in _attached if o is not obs))


def _collect_dropped_systems(obs: Observer) -> None:
    if any(o.system_bound and o is not obs for o in _attached):
        gc.collect()  # a no-op when called back from inside a collection


def _publish(observers: tuple[Observer, ...]) -> None:
    global observer, _attached
    if not observers:
        slot = None
    elif len(observers) == 1:
        slot = observers[0]
    else:
        slot = _FanOut(observers)
    _attached, observer = observers, slot
