"""Wiring verifier: structural checks on an assembled component tree.

Run this *after* construction and *before* (or instead of) starting the
system — typically on a tree built under a
:class:`~repro.runtime.scheduler.ManualScheduler` so nothing executes::

    system = ComponentSystem(scheduler=ManualScheduler())
    root = system.bootstrap(Main)          # construction only; Start queued
    findings = verify_system(system)

Checks (rule ids in :mod:`repro.analysis.findings`):

- **W001** required ports with no channel on their outside face;
- **W002** subscriptions no trigger site can reach through the channel
  graph — the reachability walk follows the propagation rules stated in
  :mod:`repro.core.dispatch` (what :func:`repro.core.routing.compile_plan`
  flattens) and treats held channels as conductive;
- **W003** duplicate subscriptions (same handler, face, event type);
- **W004** channel anomalies (duplicate parallel channels, held channels,
  unplugged ends).

Like the channel-pruning optimization, W002 is port-type-level and
selector-agnostic: a selector that filters everything out is *not*
reported, and a component that never actually triggers a declared event
still counts as a potential emitter.  Trigger sites are (a) the inside
face of every non-control port (its owner may emit there) and (b) the
channel-free outside face of every provided port (an external driver may
push requests there, as the CATS simulator's Experiment port is driven).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Union

from ..core.component import Component, ComponentCore
from ..core.event import Direction, Event
from ..core.port import Port, PortFace
from .config import AnalysisConfig
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.system import ComponentSystem

Root = Union[Component, ComponentCore, "ComponentSystem"]


def verify_system(system: "ComponentSystem", config: Optional[AnalysisConfig] = None,
                  allow: Iterable[str] = ()) -> list[Finding]:
    """Verify every root hierarchy registered in ``system``."""
    findings: list[Finding] = []
    for root in system.roots:
        findings.extend(verify_tree(root, config, allow))
    return findings


def verify_tree(root: Root, config: Optional[AnalysisConfig] = None,
                allow: Iterable[str] = ()) -> list[Finding]:
    """Verify the component tree under ``root``.

    ``allow`` holds ``"RULE:glob"`` entries matched (fnmatch) against each
    finding's object path — the wiring analogue of a noqa comment, e.g.
    ``"W001:*ClientApp*"``.
    """
    import fnmatch

    config = config or AnalysisConfig()
    core = root if isinstance(root, ComponentCore) else root.core
    cores = list(_walk(core))
    findings: list[Finding] = []
    if config.rule_enabled("W001"):
        findings.extend(_check_required_ports(cores))
    if config.rule_enabled("W002"):
        flagged = {f.extra.get("port_id") for f in findings if f.rule == "W001"}
        findings.extend(_check_dead_subscriptions(cores, flagged))
    if config.rule_enabled("W003"):
        findings.extend(_check_duplicate_subscriptions(cores))
    if config.rule_enabled("W004"):
        findings.extend(_check_channels(cores))
    allow = tuple(allow)
    if allow:
        def allowed(finding: Finding) -> bool:
            for entry in allow:
                rule, _, pattern = entry.partition(":")
                if finding.rule == rule and fnmatch.fnmatch(
                    finding.obj or "", pattern or "*"
                ):
                    return True
            return False

        findings = [f for f in findings if not allowed(f)]
    findings.sort(key=lambda f: (f.obj or "", f.rule))
    return findings


# ------------------------------------------------------------------- helpers


def _walk(core: ComponentCore):
    yield core
    for child in core.children:
        yield from _walk(child)


def _path(core: ComponentCore) -> str:
    parts = []
    current: Optional[ComponentCore] = core
    while current is not None:
        parts.append(current.name)
        current = current.parent
    return "/".join(reversed(parts))


def _port_label(port: Port) -> str:
    kind = "provided" if port.is_provided else "required"
    return f"{_path(port.owner)}.{port.port_type.__name__}[{kind}]"


def _tree_ports(cores: list[ComponentCore]) -> list[Port]:
    ports: list[Port] = []
    for core in cores:
        ports.extend(core.ports.values())
    return ports


# ---------------------------------------------------------------------- W001


def _check_required_ports(cores: list[ComponentCore]) -> list[Finding]:
    findings = []
    for port in _tree_ports(cores):
        if port.is_provided or port.is_control:
            continue
        if not port.outside.channels:
            findings.append(
                Finding(
                    rule="W001",
                    message=(
                        f"required {port.port_type.__name__} port of "
                        f"{port.owner.name} has no channel: nothing provides "
                        f"the service"
                    ),
                    obj=_port_label(port),
                    extra={"port_id": port.id},
                )
            )
    return findings


# ---------------------------------------------------------------------- W002


def _reachable_faces(start: PortFace, direction: Direction) -> frozenset[int]:
    """Face ids an event emitted at ``start`` with ``direction`` is delivered to.

    Follows the propagation rules of :mod:`repro.core.dispatch`: deliver
    where the direction matches the face's incoming side, cross component
    boundaries, forward along channels.  Held channels forward (queued
    events are delivered on resume); unplugged ends stop the walk (the
    queued events have no destination *in this tree*).
    """
    seen: set[int] = set()
    delivered: set[int] = set()
    stack = [start]
    while stack:
        face = stack.pop()
        if id(face) in seen:
            continue
        seen.add(id(face))
        if direction is face.incoming:
            delivered.add(id(face))
        port = face.port
        inward = direction is port.boundary_inward
        if not face.is_inside:
            if inward:
                stack.append(port.inside)
                continue
        else:
            if not inward:
                stack.append(port.outside)
                continue
        for channel in face.channels:
            if channel.destroyed:
                continue
            other = channel.other_end(face)
            if other is not None:
                stack.append(other)
    return frozenset(delivered)


def _could_carry(port_type, direction: Direction, event_type: type[Event]) -> bool:
    declared = (
        port_type.positive if direction is Direction.POSITIVE else port_type.negative
    )
    return any(
        issubclass(event_type, allowed) or issubclass(allowed, event_type)
        for allowed in declared
    )


def _trigger_sites(cores: list[ComponentCore]) -> list[tuple[PortFace, Direction]]:
    sites: list[tuple[PortFace, Direction]] = []
    for port in _tree_ports(cores):
        if port.is_control:
            continue
        # The owner may emit on the inside face.
        sites.append((port.inside, port.inside.incoming.opposite))
        # A driver may push requests into a free provided outside face.
        if port.is_provided and not port.outside.channels:
            sites.append((port.outside, port.boundary_inward))
    return sites


def _check_dead_subscriptions(
    cores: list[ComponentCore], skip_port_ids: set
) -> list[Finding]:
    findings = []
    sites = _trigger_sites(cores)
    reach_cache: dict[tuple[int, Direction], frozenset[int]] = {}
    for port in _tree_ports(cores):
        if port.is_control or port.id in skip_port_ids:
            continue
        for face in (port.inside, port.outside):
            for subscription in face.subscriptions:
                live = False
                for site_face, direction in sites:
                    if direction is not face.incoming:
                        continue
                    if not _could_carry(
                        site_face.port_type, direction, subscription.event_type
                    ):
                        continue
                    key = (id(site_face), direction)
                    reachable = reach_cache.get(key)
                    if reachable is None:
                        reachable = _reachable_faces(site_face, direction)
                        reach_cache[key] = reachable
                    if id(face) in reachable:
                        live = True
                        break
                if not live:
                    handler = getattr(
                        subscription.handler, "__name__", repr(subscription.handler)
                    )
                    findings.append(
                        Finding(
                            rule="W002",
                            message=(
                                f"subscription of {subscription.owner.name}."
                                f"{handler} for "
                                f"{subscription.event_type.__name__} is dead: "
                                f"no trigger site reaches this face"
                            ),
                            obj=_port_label(port),
                        )
                    )
    return findings


# ---------------------------------------------------------------------- W003


def _check_duplicate_subscriptions(cores: list[ComponentCore]) -> list[Finding]:
    findings = []
    for core in cores:
        for port in (core.control_port, *core.ports.values()):
            for face in (port.inside, port.outside):
                seen: dict[tuple, int] = {}
                for subscription in face.subscriptions:
                    handler = subscription.handler
                    key = (
                        id(subscription.owner),
                        getattr(handler, "__func__", handler),
                        subscription.event_type,
                    )
                    seen[key] = seen.get(key, 0) + 1
                for (owner_id, handler, event_type), count in seen.items():
                    if count > 1:
                        name = getattr(handler, "__name__", repr(handler))
                        findings.append(
                            Finding(
                                rule="W003",
                                message=(
                                    f"{name} subscribed {count}x for "
                                    f"{event_type.__name__} at the same face: "
                                    f"each event runs it {count} times"
                                ),
                                obj=_port_label(port),
                            )
                        )
    return findings


# ---------------------------------------------------------------------- W004


def _check_channels(cores: list[ComponentCore]) -> list[Finding]:
    findings = []
    channels: dict[int, object] = {}
    for port in _tree_ports(cores):
        for face in (port.inside, port.outside):
            for channel in face.channels:
                channels[id(channel)] = channel
    pairs: dict[tuple[int, int], int] = {}
    for channel in channels.values():
        label = f"channel[{channel.port_type.__name__}]"
        pos, neg = channel.positive_end, channel.negative_end
        if pos is None or neg is None:
            missing = "positive" if pos is None else "negative"
            attached = pos or neg
            findings.append(
                Finding(
                    rule="W004",
                    message=(
                        f"channel has an unplugged {missing} end: events "
                        f"toward it queue forever unless plugged"
                    ),
                    obj=f"{_port_label(attached.port)}.{label}",
                )
            )
            continue
        if channel.held:
            findings.append(
                Finding(
                    rule="W004",
                    message="channel is held at verification time: events queue "
                            "until resume() is called",
                    obj=f"{_port_label(pos.port)}.{label}",
                )
            )
        if channel.selector is None:
            key = (id(pos), id(neg))
            pairs[key] = pairs.get(key, 0) + 1
            if pairs[key] == 2:  # report once per duplicated pair
                findings.append(
                    Finding(
                        rule="W004",
                        message=(
                            f"duplicate parallel channels (no selector) between "
                            f"{_port_label(pos.port)} and {_port_label(neg.port)}: "
                            f"events are delivered twice"
                        ),
                        obj=f"{_port_label(pos.port)}.{label}",
                    )
                )
    return findings
