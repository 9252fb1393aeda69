"""A005: trigger of an event type the port cannot carry.

``self.trigger(event, face)`` on one of the component's own port faces
emits in a fixed direction: POSITIVE (indications) on a provided port,
NEGATIVE (requests) on a required one.  When the port type's declaration
for that direction admits neither the event's type nor any of its
(name-level) super/subtypes, the trigger is guaranteed to raise
``PortTypeError`` at runtime.  The check grounds every name in the
project index and skips anything unresolved.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..program import self_attr

RULE = "A005"


def check(ctx) -> Iterator[tuple[str, str, ast.AST]]:
    index = ctx.index
    for call, method in ctx.trigger_calls:
        if len(call.args) < 2:
            continue
        event_name = _event_ctor_name(call.args[0], index)
        if event_name is None:
            continue
        port = _resolve_face(call.args[1], ctx, method)
        if port is None:
            continue
        port_name, provided = port
        direction = "positive" if provided else "negative"
        declared = index.port_direction_events(port_name, direction)
        if declared is None:
            continue
        if any(not index.is_event(d) for d in declared):
            continue  # declaration references types outside the index
        if any(index.events_related(event_name, d) for d in declared):
            continue
        yield (
            RULE,
            f"trigger of {event_name} on {'provided' if provided else 'required'} "
            f"{port_name} port: not declared in its {direction} direction "
            f"(would raise PortTypeError)",
            call,
        )


def _event_ctor_name(node: ast.expr, index) -> Optional[str]:
    """Name of the event class when the argument is a direct constructor call."""
    if not isinstance(node, ast.Call):
        return None
    name = node.func.attr if isinstance(node.func, ast.Attribute) else (
        node.func.id if isinstance(node.func, ast.Name) else None
    )
    if name is None or not index.is_event(name) or name not in index.classes:
        return None
    return name


def _resolve_face(
    node: ast.expr, ctx, method: ast.FunctionDef
) -> Optional[tuple[str, bool]]:
    """Resolve a face expression to (port type name, provided?).

    Handles ``self.<attr>`` port attributes and local variables assigned
    from ``self.provides(...)/self.requires(...)`` within the same method.
    Control ports and anything else stay unresolved (no finding).
    """
    attr = self_attr(node, "self")
    if attr is not None:
        return ctx.ports.get(attr)
    if isinstance(node, ast.Name):
        local: Optional[tuple[str, bool]] = None
        for stmt in ast.walk(method):
            if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)):
                continue
            called = self_attr(stmt.value.func, "self")
            if called not in ("provides", "requires") or not stmt.value.args:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == node.id:
                    port_name = stmt.value.args[0]
                    name = port_name.id if isinstance(port_name, ast.Name) else None
                    if name is not None:
                        local = (name, called == "provides")
        return local
    return None
