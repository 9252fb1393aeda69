"""The runtime's one instrumentation seam.

Every hook site reads :data:`observer` once and tests it against
``None``.  The slot holds nothing, the one attached observer, or a
fan-out over several, which runs the closing hooks (``end``, ``fire_end``)
in reverse attach order so bracketing observers nest without knowing
about each other.  A site calls both halves of a pair on what it read.
"""

from __future__ import annotations

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
_lock = threading.Lock()


def attach(obs: Observer) -> None:
    """Add ``obs`` to the seam, after every observer already attached."""
    with _lock:
        if obs in _attached:
            raise ValueError(f"{obs!r} is already attached")
        _publish(_attached + (obs,))


def detach(obs: Observer) -> None:
    """Remove ``obs`` from the seam (a no-op when it is not attached)."""
    with _lock:
        _publish(tuple(o for o in _attached if o is not obs))


def _publish(observers: tuple[Observer, ...]) -> None:
    global observer, _attached
    _attached = observers
    if not observers:
        observer = None
    elif len(observers) == 1:
        observer = observers[0]
    else:
        observer = _FanOut(observers)
