"""Extract producer/consumer records from syntax trees.

A *producer* is a ``trigger(event, face)`` call site; a *consumer* is a
``subscribe(handler, face, ...)`` call site.  Both are resolved to a
:class:`Face` — (port type name, provided?, inside?) — from which the
event's travel direction follows exactly as in :mod:`repro.core.dispatch`:

- a subscription receives events in the face's *incoming* direction
  (NEGATIVE iff provided == inside);
- a trigger emits in the opposite direction (POSITIVE iff provided ==
  inside for inside faces; ``boundary_inward`` for outside faces) —
  which works out to the opposite of incoming for every face.

Face expressions the resolver grounds:

- ``self.attr`` where ``attr`` was assigned from ``self.provides(P)`` /
  ``self.requires(P)`` (inside face) or ``<expr>.provided(P)`` /
  ``<expr>.required(P)`` (a child's outside face);
- ``<expr>.provided(P)`` / ``<expr>.required(P)`` inline;
- ``<expr>.port(P, provided=...).outside`` / ``.inside``;
- a local variable assigned from any of the above in the enclosing
  function or module scope;
- ``var.attr`` where ``var`` was assigned from a component class
  constructor in the enclosing scope (driver scripts).

``self.control`` and ``<expr>.control()`` are the lifecycle plane and are
skipped entirely.  Anything else is ungrounded: the record is dropped
(never a false positive).  An event argument that is not a direct
constructor call of a known Event subclass becomes a *wildcard* record
(event ``None``) that matches everything but asserts nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..program import (
    COMPONENT_ROOT,
    PORT_ROOT,
    ModuleInfo,
    ProjectIndex,
    base_name,
    first_param,
    self_attr,
)

POSITIVE = "+"
NEGATIVE = "-"

#: Sentinel face for the lifecycle/control plane (skipped).
CONTROL = object()


@dataclass(frozen=True)
class Face:
    """A grounded port face: enough to derive event directions."""

    port_type: str
    provided: bool
    inside: bool

    @property
    def incoming(self) -> str:
        """Direction of events delivered to subscriptions at this face."""
        return NEGATIVE if self.provided == self.inside else POSITIVE

    @property
    def emits(self) -> str:
        """Direction an event triggered at this face travels."""
        return POSITIVE if self.provided == self.inside else NEGATIVE


@dataclass(frozen=True)
class Producer:
    """One grounded trigger site."""

    port_type: str
    direction: str  # "+" or "-"
    event: Optional[str]  # None = wildcard (event not statically known)
    component: str  # class name, or "<module>" for driver-script triggers
    file: str
    line: int
    col: int


@dataclass(frozen=True)
class Consumer:
    """One grounded subscription site."""

    port_type: str
    direction: str
    event: Optional[str]
    handler: str
    component: str
    file: str
    line: int
    col: int


@dataclass(frozen=True)
class PortDecl:
    """One event named in a port type's positive/negative declaration."""

    port_type: str
    direction: str  # "+" (positive) or "-" (negative)
    event: str
    file: str
    line: int


@dataclass
class FlowExtraction:
    producers: list[Producer] = field(default_factory=list)
    consumers: list[Consumer] = field(default_factory=list)
    port_decls: list[PortDecl] = field(default_factory=list)


@dataclass
class _Scope:
    """Name-resolution context for one call site."""

    ports: dict[str, Face]  # self attribute -> face (components only)
    selfname: Optional[str]
    stmts: list[ast.stmt]  # statements searched for local assignments
    instances: dict[str, str]  # local variable -> component class name


class _Extractor:
    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._class_ports: dict[int, dict[str, Face]] = {}

    # ---------------------------------------------------------- port tables

    def class_ports(self, node: ast.ClassDef) -> dict[str, Face]:
        cached = self._class_ports.get(id(node))
        if cached is not None:
            return cached
        ports: dict[str, Face] = {}
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            selfname = first_param(item)
            if selfname is None:
                continue
            for stmt in ast.walk(item):
                if not isinstance(stmt, ast.Assign):
                    continue
                face = self._face_of_value(stmt.value, selfname)
                if face is None or face is CONTROL:
                    continue
                for target in stmt.targets:
                    attr = self_attr(target, selfname)
                    if attr is not None:
                        ports[attr] = face
        self._class_ports[id(node)] = ports
        return ports

    def _face_of_value(self, value: ast.expr, selfname: str):
        """Ground an assignment RHS that denotes a face (no scope search)."""
        if isinstance(value, ast.Call):
            fn = value.func
            if isinstance(fn, ast.Attribute) and value.args:
                port_name = base_name(value.args[0])
                if port_name is None or not self.index.is_port_type(port_name):
                    return None
                if self_attr(fn, selfname) in ("provides", "requires"):
                    return Face(port_name, fn.attr == "provides", inside=True)
                if fn.attr in ("provided", "required"):
                    return Face(port_name, fn.attr == "provided", inside=False)
        return None

    # ------------------------------------------------------ face resolution

    def resolve_face(self, expr: ast.expr, scope: _Scope, _seen: frozenset = frozenset()):
        """Ground a face expression; returns Face, CONTROL, or None."""
        # <expr>.port(P, provided=...).outside / .inside
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr in ("outside", "inside")
            and isinstance(expr.value, ast.Call)
            and isinstance(expr.value.func, ast.Attribute)
            and expr.value.func.attr == "port"
            and expr.value.args
        ):
            call = expr.value
            port_name = base_name(call.args[0])
            provided = None
            for kw in call.keywords:
                if kw.arg == "provided" and isinstance(kw.value, ast.Constant):
                    provided = bool(kw.value.value)
            if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
                provided = bool(call.args[1].value)
            if port_name and provided is not None and self.index.is_port_type(port_name):
                return Face(port_name, provided, inside=(expr.attr == "inside"))
            return None

        if isinstance(expr, ast.Call):
            fn = expr.func
            if isinstance(fn, ast.Attribute):
                if fn.attr == "control":
                    return CONTROL
                if fn.attr in ("provided", "required") and expr.args:
                    port_name = base_name(expr.args[0])
                    if port_name and self.index.is_port_type(port_name):
                        return Face(port_name, fn.attr == "provided", inside=False)
                if fn.attr in ("provides", "requires") and expr.args:
                    port_name = base_name(expr.args[0])
                    if port_name and self.index.is_port_type(port_name):
                        return Face(port_name, fn.attr == "provides", inside=True)
            return None

        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = expr.value.id
            if owner == scope.selfname:
                if expr.attr == "control":
                    return CONTROL
                return scope.ports.get(expr.attr)
            cls = scope.instances.get(owner)
            if cls is not None:
                info = self.index.classes.get(cls)
                if info is not None:
                    return self.class_ports(info.node).get(expr.attr)
            return None

        if isinstance(expr, ast.Name):
            if expr.id in _seen:
                return None
            seen = _seen | {expr.id}
            for stmt in scope.stmts:
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == expr.id:
                        face = self.resolve_face(stmt.value, scope, seen)
                        if face is not None:
                            return face
            return None

        return None

    # ----------------------------------------------------- event resolution

    def resolve_event(self, expr: ast.expr) -> Optional[str]:
        """Event type name when the argument is a direct constructor call."""
        if isinstance(expr, ast.Call):
            name = base_name(expr.func)
            if name and self.index.is_event(name):
                return name
        return None

    # ----------------------------------------------------------- extraction

    def extract_module(self, module: ModuleInfo, out: FlowExtraction) -> None:
        """Append the records of one module to ``out``."""
        component_nodes = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if self.index.is_component(node.name) and node.name != COMPONENT_ROOT:
                component_nodes.append(node)
            elif self.index.is_port_type(node.name) and node.name != PORT_ROOT:
                self._extract_port_decls(node, module, out)
        module_instances = _instance_map(module.tree.body, self.index)
        for node in component_nodes:
            self._extract_component(node, module, module_instances, out)
        self._extract_toplevel(
            module.tree.body, module, set(map(id, component_nodes)),
            module_instances, out,
        )

    def _extract_port_decls(
        self, node: ast.ClassDef, module: ModuleInfo, out: FlowExtraction
    ) -> None:
        for item in node.body:
            if not isinstance(item, ast.Assign):
                continue
            for target in item.targets:
                if not (
                    isinstance(target, ast.Name)
                    and target.id in ("positive", "negative")
                ):
                    continue
                if not isinstance(item.value, (ast.Tuple, ast.List)):
                    continue
                direction = POSITIVE if target.id == "positive" else NEGATIVE
                for elt in item.value.elts:
                    name = base_name(elt)
                    if name:
                        out.port_decls.append(
                            PortDecl(
                                node.name, direction, name,
                                str(module.path), elt.lineno,
                            )
                        )

    def _extract_component(
        self,
        node: ast.ClassDef,
        module: ModuleInfo,
        module_instances: dict[str, str],
        out: FlowExtraction,
    ) -> None:
        ports = self.class_ports(node)
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            selfname = first_param(item)
            if selfname is None:
                continue
            instances = dict(module_instances)
            instances.update(_instance_map(list(ast.walk(item)), self.index))
            scope = _Scope(
                ports=ports,
                selfname=selfname,
                stmts=[s for s in ast.walk(item) if isinstance(s, ast.Assign)]
                + [s for s in module.tree.body if isinstance(s, ast.Assign)],
                instances=instances,
            )
            for call, env in _calls_with_env(item.body, {}):
                fn = call.func
                if self_attr(fn, selfname) == "subscribe":
                    self._consume(call, env, scope, node.name, module, out)
                elif _is_trigger(fn):
                    self._produce(call, scope, node.name, module, out)

    def _extract_toplevel(
        self,
        body: list[ast.stmt],
        module: ModuleInfo,
        component_ids: set[int],
        module_instances: dict[str, str],
        out: FlowExtraction,
    ) -> None:
        """Triggers in driver code: module scope and non-component functions."""

        def visit(stmts: list[ast.stmt], local: Optional[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.ClassDef) and id(stmt) in component_ids:
                    continue
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(stmt.body, stmt)
                    continue
                if isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, local)
                    continue
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call) and _is_trigger(node.func):
                        scope = self._toplevel_scope(module, local, module_instances)
                        self._produce(node, scope, "<module>", module, out)

        visit(body, None)

    def _toplevel_scope(
        self,
        module: ModuleInfo,
        func: Optional[ast.stmt],
        module_instances: dict[str, str],
    ) -> _Scope:
        stmts: list[ast.stmt] = []
        instances = dict(module_instances)
        if func is not None:
            stmts.extend(s for s in ast.walk(func) if isinstance(s, ast.Assign))
            instances.update(_instance_map(list(ast.walk(func)), self.index))
        stmts.extend(s for s in module.tree.body if isinstance(s, ast.Assign))
        return _Scope(ports={}, selfname=None, stmts=stmts, instances=instances)

    # -------------------------------------------------------------- records

    def _produce(
        self,
        call: ast.Call,
        scope: _Scope,
        component: str,
        module: ModuleInfo,
        out: FlowExtraction,
    ) -> None:
        if len(call.args) < 2:
            return
        face = self.resolve_face(call.args[1], scope)
        if face is None or face is CONTROL:
            return
        out.producers.append(
            Producer(
                port_type=face.port_type,
                direction=face.emits,
                event=self.resolve_event(call.args[0]),
                component=component,
                file=str(module.path),
                line=call.lineno,
                col=call.col_offset,
            )
        )

    def _consume(
        self,
        call: ast.Call,
        env: dict[str, tuple[Optional[str], ...]],
        scope: _Scope,
        component: str,
        module: ModuleInfo,
        out: FlowExtraction,
    ) -> None:
        if len(call.args) < 2:
            return
        face = self.resolve_face(call.args[1], scope)
        if face is None or face is CONTROL:
            return
        handler_expr = call.args[0]
        handler_name = self_attr(handler_expr, scope.selfname)

        event_kw = next(
            (kw.value for kw in call.keywords if kw.arg == "event_type"), None
        )
        entries: list[tuple[Optional[str], str]] = []
        if event_kw is not None:
            if isinstance(event_kw, ast.Name) and event_kw.id in env:
                # Loop-table subscription: expand the literal pairs.
                events = env[event_kw.id]
                handlers: tuple[Optional[str], ...]
                if isinstance(handler_expr, ast.Name) and handler_expr.id in env:
                    handlers = env[handler_expr.id]
                else:
                    handlers = (handler_name,) * len(events)
                for ev, h in zip(events, handlers):
                    grounded = ev if ev and self.index.is_event(ev) else None
                    entries.append((grounded, h or "<handler>"))
            else:
                name = base_name(event_kw)
                grounded = name if name and self.index.is_event(name) else None
                entries.append((grounded, handler_name or "<handler>"))
        else:
            event = None
            if handler_name is not None:
                info = self.index.lookup_method(component, handler_name)
                if info is not None and info.event_type is not None:
                    if self.index.is_event(info.event_type):
                        event = info.event_type
            entries.append((event, handler_name or "<handler>"))

        for event, handler in entries:
            out.consumers.append(
                Consumer(
                    port_type=face.port_type,
                    direction=face.incoming,
                    event=event,
                    handler=handler,
                    component=component,
                    file=str(module.path),
                    line=call.lineno,
                    col=call.col_offset,
                )
            )


# ------------------------------------------------------------------ helpers


def _is_trigger(fn: ast.expr) -> bool:
    if isinstance(fn, ast.Name):
        return fn.id == "trigger"
    return isinstance(fn, ast.Attribute) and fn.attr == "trigger"


def _instance_map(stmts: list, index: ProjectIndex) -> dict[str, str]:
    """``var = SomeComponent(...)`` bindings in a statement list."""
    instances: dict[str, str] = {}
    for stmt in stmts:
        if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
            continue
        cls = base_name(stmt.value.func)
        if cls is None or not index.is_component(cls):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                instances[target.id] = cls
    return instances


def _calls_with_env(
    stmts: list[ast.stmt], env: dict[str, tuple[Optional[str], ...]]
) -> Iterator[tuple[ast.Call, dict[str, tuple[Optional[str], ...]]]]:
    """All Call nodes, with loop-table bindings from enclosing literal fors.

    ``for ev, handler in ((E1, self.h1), (E2, self.h2)): ...`` binds
    ``ev -> (E1, E2)`` and ``handler -> (h1, h2)`` inside the loop body, so
    a table-driven ``subscribe(handler, port, event_type=ev)`` expands into
    one consumer record per table row.
    """
    for stmt in stmts:
        if isinstance(stmt, ast.For):
            bound = _literal_for_bindings(stmt)
            if bound:
                for sub in _expr_calls(stmt.iter):
                    yield sub, env
                yield from _calls_with_env(stmt.body, {**env, **bound})
                yield from _calls_with_env(stmt.orelse, env)
                continue
        if isinstance(stmt, (ast.For, ast.While, ast.If, ast.With, ast.Try)):
            for field_name, value in ast.iter_fields(stmt):
                if field_name in ("body", "orelse", "finalbody"):
                    continue
                for sub in _expr_calls(value):
                    yield sub, env
            for field_name in ("body", "orelse", "finalbody"):
                yield from _calls_with_env(getattr(stmt, field_name, []) or [], env)
        else:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield node, env


def _expr_calls(value) -> Iterator[ast.Call]:
    if isinstance(value, ast.AST):
        for node in ast.walk(value):
            if isinstance(node, ast.Call):
                yield node
    elif isinstance(value, list):
        for item in value:
            yield from _expr_calls(item)


def _literal_for_bindings(
    stmt: ast.For,
) -> Optional[dict[str, tuple[Optional[str], ...]]]:
    target = stmt.target
    if not (
        isinstance(target, ast.Tuple)
        and all(isinstance(e, ast.Name) for e in target.elts)
    ):
        return None
    if not isinstance(stmt.iter, (ast.Tuple, ast.List)):
        return None
    width = len(target.elts)
    columns: list[list[Optional[str]]] = [[] for _ in range(width)]
    for row in stmt.iter.elts:
        if not isinstance(row, (ast.Tuple, ast.List)) or len(row.elts) != width:
            return None
        for i, cell in enumerate(row.elts):
            columns[i].append(base_name(cell))
    return {
        name.id: tuple(column)
        for name, column in zip(target.elts, columns)
    }
