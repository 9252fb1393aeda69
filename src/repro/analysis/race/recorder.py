"""Object-access recording and R001 race detection.

The recorder watches *non-event* mutable objects — event payloads
(lists, dicts, sets carried inside events) and explicitly registered
shared state — and checks every access against the happens-before order
maintained by :class:`~repro.analysis.race.hb.HBTracker`.

Detection is FastTrack-flavoured: per object, per context (component /
thread / timed dispatch), keep the last read and last write with their
epoch clocks.  A new access conflicts with a stored access from another
context when at least one of the two is a write and the stored access's
clock is not ≤ the current epoch's clock — no chain of trigger/channel/
lifecycle/transfer edges orders them, so on the multi-core runtime they
could interleave: rule **R001**.

Two ways an access is observed:

- *payload diffing* — every event's mutable payload attributes are
  fingerprinted before and after each handler execution that receives
  the event; a changed fingerprint is a write by that epoch, an
  unchanged one a read (the handler held a reference either way).
- *explicit notes* — ``note_read(obj)`` / ``note_write(obj)`` from
  instrumented code record an access with a captured stack.
"""

from __future__ import annotations

import dataclasses
import reprlib
import traceback
from typing import TYPE_CHECKING, Optional

from ..findings import Finding
from .hb import Epoch, HBTracker

if TYPE_CHECKING:  # pragma: no cover
    from ...core.component import ComponentCore, WorkItem

#: Container types whose identity is shared by reference through events.
_TRACKED_TYPES = (list, dict, set, bytearray)

_short_repr = reprlib.Repr()
_short_repr.maxstring = 60
_short_repr.maxother = 60


class _Access:
    """One recorded access to a tracked object."""

    __slots__ = ("kind", "clock", "site", "stack", "epoch_number")

    def __init__(
        self,
        kind: str,
        epoch: Epoch,
        site: str,
        stack: Optional[list[str]],
    ) -> None:
        self.kind = kind  # "read" | "write"
        self.clock = epoch.clock
        self.site = site
        self.stack = stack
        self.epoch_number = epoch.number

    def describe(self) -> str:
        return f"{self.kind} at {self.site} (epoch #{self.epoch_number}, clock {self.clock!r})"


class _ObjectState:
    """Per-tracked-object access history: last read/write per context."""

    __slots__ = ("name", "by_context")

    def __init__(self, name: str) -> None:
        self.name = name
        self.by_context: dict[int, dict[str, _Access]] = {}


class AccessRecorder:
    """Records object accesses and reports unordered conflicts (R001)."""

    def __init__(self, tracker: HBTracker, capture_stacks: bool = True) -> None:
        self.tracker = tracker
        self.capture_stacks = capture_stacks
        self.findings: list[Finding] = []
        self._objects: dict[int, _ObjectState] = {}
        self._refs: dict[int, object] = {}  # strong refs: ids stay unique
        self._event_payloads: dict[int, tuple[tuple[str, object], ...]] = {}
        self._globals: list[tuple[str, object]] = []  # track_object registrations
        self._reported: set[tuple] = set()

    # ----------------------------------------------------------- registration

    def _state_for(self, obj: object, name: str) -> _ObjectState:
        state = self._objects.get(id(obj))
        if state is None:
            state = _ObjectState(name)
            self._objects[id(obj)] = state
            self._refs[id(obj)] = obj
        return state

    def track_object(self, obj: object, name: Optional[str] = None) -> None:
        """Explicitly watch ``obj``: probed around every handler execution."""
        label = name or f"{type(obj).__name__}@{id(obj):#x}"
        self._state_for(obj, label)
        if not any(existing is obj for _, existing in self._globals):
            self._globals.append((label, obj))

    def register_event(self, event: object) -> None:
        """Auto-track the mutable payload attributes of a triggered event.

        Payload identity is what matters: the same list inside two events
        (or fanned out to two subscribers) is one shared object.  Only an
        event with payloads is remembered, and it is kept alive so its id
        is not reused; one without is walked again when re-triggered.
        """
        key = id(event)
        if key in self._event_payloads:
            return
        payloads: list[tuple[str, object]] = []
        attrs = getattr(event, "__dict__", None)
        if attrs:
            items = list(attrs.items())
        elif dataclasses.is_dataclass(event):
            # Hot events are slotted frozen dataclasses (no __dict__):
            # probe their declared fields instead.
            items = [
                (f.name, getattr(event, f.name)) for f in dataclasses.fields(event)
            ]
        else:
            items = []
        if items:
            type_name = type(event).__name__
            for attr, value in items:
                for name, obj in self._walk_payload(f"{type_name}.{attr}", value):
                    payloads.append((name, obj))
                    self._state_for(obj, name)
        if payloads:
            self._event_payloads[key] = tuple(payloads)
            self._refs[key] = event  # keep the id stable while tracked

    @staticmethod
    def _walk_payload(name: str, value: object) -> list[tuple[str, object]]:
        if isinstance(value, _TRACKED_TYPES):
            return [(name, value)]
        if isinstance(value, tuple):  # one level: common (payload, meta) shapes
            return [
                (f"{name}[{i}]", item)
                for i, item in enumerate(value)
                if isinstance(item, _TRACKED_TYPES)
            ]
        return []

    # ------------------------------------------------------ execution probing

    @staticmethod
    def _probe(obj: object) -> int:
        """A cheap content fingerprint; changed fingerprint ⇒ write."""
        try:
            return hash(repr(obj))
        except Exception:  # pragma: no cover - exotic __repr__
            return 0

    def begin(self, core: "ComponentCore", item: "WorkItem") -> list[tuple[str, object, int]]:
        """Snapshot the tracked objects this execution can reach."""
        watched = list(self._event_payloads.get(id(item.event), ()))
        watched.extend(self._globals)
        seen: set[int] = set()
        snapshot = []
        for name, obj in watched:
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            snapshot.append((name, obj, self._probe(obj)))
        return snapshot

    def end(
        self,
        core: "ComponentCore",
        item: "WorkItem",
        epoch: Epoch,
        snapshot: list[tuple[str, object, int]],
    ) -> None:
        """Re-probe and record each touched object as read or written."""
        if not snapshot:
            return
        site = self._execution_site(core, item)
        for name, obj, before in snapshot:
            kind = "write" if self._probe(obj) != before else "read"
            self._access(obj, name, kind, epoch, site, stack=None)

    @staticmethod
    def _execution_site(core: "ComponentCore", item: "WorkItem") -> str:
        try:
            handlers = ", ".join(
                getattr(fn, "__qualname__", repr(fn))
                for fn in core._match_handlers(item)
            )
        except Exception:  # pragma: no cover - defensive
            handlers = ""
        site = f"{core.name} <- {type(item.event).__name__}"
        return f"{site} (handlers: {handlers})" if handlers else site

    # -------------------------------------------------------- explicit access

    def explicit_access(self, obj: object, kind: str, name: Optional[str]) -> None:
        epoch = self.tracker.current_epoch()
        if epoch is None:
            epoch = self.tracker.ambient_epoch(f"{kind} of {name or type(obj).__name__}")
        state = self._objects.get(id(obj))
        label = name or (state.name if state is not None else None)
        label = label or f"{type(obj).__name__}@{id(obj):#x}"
        stack = None
        if self.capture_stacks:
            raw = traceback.extract_stack()[:-2]  # drop recorder/hooks frames
            stack = traceback.format_list(raw[-6:])
        self._access(obj, label, kind, epoch, f"{epoch.label} <- {epoch.event_type}", stack)

    # ------------------------------------------------------------- core check

    def _access(
        self,
        obj: object,
        name: str,
        kind: str,
        epoch: Epoch,
        site: str,
        stack: Optional[list[str]],
    ) -> None:
        state = self._state_for(obj, name)
        access = _Access(kind, epoch, site, stack)
        for context_index, slots in state.by_context.items():
            if context_index == epoch.context_index:
                continue  # program order covers same-context accesses
            for prev_kind in ("write",) if kind == "read" else ("write", "read"):
                prev = slots.get(prev_kind)
                if prev is not None and not prev.clock.leq(epoch.clock):
                    self._report(obj, state, prev, access)
        state.by_context.setdefault(epoch.context_index, {})[kind] = access

    def _report(self, obj: object, state: _ObjectState, prev: _Access, cur: _Access) -> None:
        key = (state.name, prev.site, cur.site, prev.kind, cur.kind)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            Finding(
                rule="R001",
                message=(
                    f"unordered conflicting accesses to {state.name} "
                    f"(current value {_short_repr.repr(obj)}): "
                    f"{prev.describe()} and {cur.describe()} are concurrent — "
                    f"no trigger/channel/lifecycle/transfer edge orders them, "
                    f"so the multi-core runtime may interleave these handlers"
                ),
                obj=state.name,
                extra={
                    "object": state.name,
                    "first": {
                        "kind": prev.kind,
                        "site": prev.site,
                        "epoch": prev.epoch_number,
                        "clock": dict(prev.clock.as_dict()),
                        "stack": prev.stack,
                    },
                    "second": {
                        "kind": cur.kind,
                        "site": cur.site,
                        "epoch": cur.epoch_number,
                        "clock": dict(cur.clock.as_dict()),
                        "stack": cur.stack,
                    },
                    "missing_edge": (
                        f"need happens-before between '{prev.site}' and "
                        f"'{cur.site}' (e.g. an event between the two "
                        f"components, a channel hold/resume fence, or "
                        f"sequencing both accesses into one component)"
                    ),
                },
            )
        )
