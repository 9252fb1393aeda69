"""Dynamic reconfiguration: safe component replacement (paper section 2.6).

The paper's replacement protocol for swapping a component ``c1`` with a new
``c2`` exposing similar ports:

1. the parent puts on hold and unplugs all channels connected to ``c1``'s
   ports (events are queued, never dropped);
2. the parent passivates ``c1``, creates ``c2``, plugs the held channels
   into the matching ports of ``c2`` and resumes them;
3. ``c2`` is initialized with the state dumped by ``c1`` and activated;
4. the parent destroys ``c1``.

:func:`replace_component` implements exactly this sequence.  State handover
uses the :class:`Handover` convention: if the old definition implements
``dump_state()`` its result is passed to the new definition's
``load_state()`` (or wrapped in the supplied Init event factory).
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable

from . import dispatch, observe
from .channel import Channel
from .component import Component, ComponentDefinition
from .errors import ConfigurationError
from .lifecycle import Init, Start, Stop


@runtime_checkable
class StatefulDefinition(Protocol):
    """Convention for state handover across a hot swap."""

    def dump_state(self) -> object: ...

    def load_state(self, state: object) -> None: ...


def replace_component(
    parent: ComponentDefinition,
    old: Component,
    new_definition: type[ComponentDefinition],
    *args: object,
    init: Optional[Init] = None,
    state_transfer: Optional[Callable[[object, ComponentDefinition], None]] = None,
    name: Optional[str] = None,
    **kwargs: object,
) -> Component:
    """Hot-swap ``old`` for a fresh instance of ``new_definition``.

    Returns the new component, already started, with every channel of the
    old component re-plugged and resumed.  No event in flight across those
    channels is dropped.
    """
    old_core = old.core
    if old_core.parent is not parent.core:
        raise ConfigurationError(
            f"{parent!r} is not the parent of {old_core.name}; only the "
            f"parent may replace a component"
        )

    # 1. Hold and unplug every channel touching the old component's ports.
    moved: list[tuple[Channel, type, bool, bool]] = []
    for (port_type, provided), port in old_core.ports.items():
        for face in (port.inside, port.outside):
            for channel in tuple(face.channels):
                channel.hold()
                channel.unplug(face)
                moved.append((channel, port_type, provided, face.is_inside))

    # 2. Passivate the old component and capture its state.
    dispatch.trigger(Stop(), old_core.control_port.outside)
    state = None
    if isinstance(old_core.definition, StatefulDefinition):
        state = old_core.definition.dump_state()

    # 3. Create the replacement and re-plug the channels.
    new = parent.create(new_definition, *args, init=init, name=name, **kwargs)
    for channel, port_type, provided, was_inside in moved:
        port = new.core.port(port_type, provided=provided)
        channel.plug(port.inside if was_inside else port.outside)

    # 3b. Migrate events already delivered to the old component but not yet
    # executed: re-inject them at the matching faces of the replacement so
    # the swap drops no triggered events.
    for item in old_core.drain_pending():
        face = item.face
        if face is None or face.port.is_control:
            continue
        port = new.core.ports.get((face.port_type, face.port.is_provided))
        if port is None:
            continue
        new.core.receive_event(item.event, port.inside if face.is_inside else port.outside)

    # 4. Transfer state, activate, resume traffic, destroy the old instance.
    obs = observe.observer
    if obs is not None:
        obs.transferred(old_core, new.core)
    if state is not None:
        if state_transfer is not None:
            state_transfer(state, new.definition)
        elif isinstance(new.definition, StatefulDefinition):
            new.definition.load_state(state)
    dispatch.trigger(Start(), new.core.control_port.outside)
    for channel, *_ in moved:
        channel.resume()
    old_core.destroy()
    return new
