"""The P001–P006 checks over the program model.

Each check yields ``(rule, message, file, line, col, extra)`` hits; the
driver (:mod:`..driver`) walks the classes, applies rule selection and
``# repro: noqa[P...]`` suppression, and drops hits outside the scanned
files — the same contract as every other pass.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..flow.graph import _CONTROL_PORTS
from ..program import (
    COMPONENTS,
    ClassInfo,
    Hit,
    Program,
    ProjectIndex,
    base_name,
    first_param,
    self_attr,
)
from .model import A003_ATTRS, COMPONENT_HANDLE_API, class_body_mutables


def _local_names(method: ast.FunctionDef) -> set[str]:
    """Names bound locally in ``method`` (params, assignments, targets)."""
    out: set[str] = set()
    args = method.args
    for arg in (
        args.posonlyargs + args.args + args.kwonlyargs
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        out.add(arg.arg)
    for node in ast.walk(method):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not method:
                out.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
        elif isinstance(node, ast.Global):
            out.difference_update(node.names)
    return out


def _instance_assigned_attrs(info: ClassInfo) -> set[str]:
    """Attrs assigned as ``self.x = ...`` anywhere in the class."""
    out: set[str] = set()
    for method in info.methods.values():
        selfname = first_param(method)
        if selfname is None:
            continue
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                attr = self_attr(target, selfname)
                if attr is not None:
                    out.add(attr)
    return out


def _chain_class_mutables(
    cls: str, index: ProjectIndex
) -> dict[str, tuple[str, int]]:
    """attr -> (declaring class, line) for class-body mutable containers
    of ``cls`` and every indexed base."""
    out: dict[str, tuple[str, int]] = {}
    seen: set[str] = set()
    frontier = [cls]
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        info = index.classes.get(current)
        if info is None:
            continue
        for attr, line in class_body_mutables(info.node).items():
            out.setdefault(attr, (current, line))
        frontier.extend(index.bases.get(current, ()))
    return out


# ------------------------------------------------------------------- P001


def check_divergent_state(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node, module = info.node, info.module
    shared = program.par.shared[str(module.path)]
    handlers = program.handlers_of(node.name)
    #: module-level containers with mutation evidence anywhere in the module
    hot_globals = {
        name: line
        for name, line in shared.module_mutables.items()
        if name in shared.module_mutated
    }
    class_mutables = _chain_class_mutables(node.name, program.index)
    instance_attrs = _instance_assigned_attrs(info)
    #: class attrs shadowed by an instance assignment are per-instance state
    shared_class_attrs = {
        attr: where
        for attr, where in class_mutables.items()
        if attr not in instance_attrs
    }
    for name in sorted(handlers):
        method = info.methods.get(name)
        if method is None:
            continue
        selfname = first_param(method)
        local = _local_names(method)
        reported: set[tuple[str, int]] = set()

        def report(kind: str, ident: str, line: int, col: Optional[int], msg: str):
            key = (ident, line)
            if key in reported:
                return None
            reported.add(key)
            return (
                "P001",
                msg,
                str(module.path),
                line,
                col,
                {"class": node.name, "handler": name, kind: ident},
            )

        for sub in ast.walk(method):
            if isinstance(sub, ast.Global):
                for ident in sub.names:
                    raw = report(
                        "global", ident, sub.lineno, sub.col_offset,
                        f"handler {name} declares 'global {ident}': writes land "
                        "in this process's module namespace only and silently "
                        "diverge per shard worker; keep the state on the "
                        "component instance",
                    )
                    if raw:
                        yield raw
            elif isinstance(sub, ast.Name) and sub.id in hot_globals:
                if sub.id in local or sub.id in module.imports:
                    continue
                raw = report(
                    "name", sub.id, sub.lineno, sub.col_offset,
                    f"handler {name} uses module-level mutable {sub.id} "
                    f"(bound at line {hot_globals[sub.id]} and mutated in this "
                    "module): every shard worker gets an independent copy, so "
                    "the contents silently diverge per process; move the state "
                    "onto the component instance",
                )
                if raw:
                    yield raw
            elif isinstance(sub, ast.Attribute):
                attr = sub.attr
                where = shared_class_attrs.get(attr)
                if where is None:
                    continue
                base = sub.value
                via_class = (
                    isinstance(base, (ast.Name, ast.Attribute))
                    and base_name(base) in (node.name, where[0])
                ) or (
                    isinstance(base, ast.Attribute)
                    and base.attr == "__class__"
                ) or (
                    isinstance(base, ast.Call)
                    and base_name(base.func) == "type"
                )
                via_self = selfname is not None and self_attr(sub, selfname) == attr
                if not (via_class or via_self):
                    continue
                raw = report(
                    "attr", attr, sub.lineno, sub.col_offset,
                    f"handler {name} uses class-level mutable "
                    f"{where[0]}.{attr} (declared at line {where[1]}, never "
                    "shadowed by an instance assignment): the container is "
                    "shared by every instance in this process and diverges "
                    "per shard worker; make it instance state",
                )
                if raw:
                    yield raw


# ------------------------------------------------------------------- P002


def check_reach_through(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node, path = info.node, str(info.module.path)
    comp = program.dist.components.get(node.name)
    definition_attrs = program.par.held_definitions.get(node.name, frozenset())
    child_attrs = comp.child_attrs if comp is not None else frozenset()
    if not (child_attrs or definition_attrs):
        return
    handlers = program.handlers_of(node.name)
    for name in sorted(handlers):
        method = info.methods.get(name)
        if method is None:
            continue
        selfname = first_param(method)
        if selfname is None:
            continue
        reported: set[int] = set()
        for sub in ast.walk(method):
            if not isinstance(sub, ast.Attribute):
                continue
            held = self_attr(sub.value, selfname)
            if held is None or sub.lineno in reported:
                continue
            if held in definition_attrs:
                reported.add(sub.lineno)
                yield (
                    "P002",
                    f"handler {name} accesses .{sub.attr} on self.{held}, a "
                    "held reference to another component instance; a process "
                    "boundary severs the reference — communicate through a "
                    "port (trigger an event) instead",
                    path,
                    sub.lineno,
                    sub.col_offset,
                    {"class": node.name, "handler": name, "attr": held,
                     "access": sub.attr},
                )
            elif held in child_attrs:
                if sub.attr in COMPONENT_HANDLE_API or sub.attr in A003_ATTRS:
                    continue  # port API; .definition/.core are A003's
                reported.add(sub.lineno)
                yield (
                    "P002",
                    f"handler {name} accesses .{sub.attr} on child handle "
                    f"self.{held}; only the port-access API "
                    "(provided/required) survives sharding — route the "
                    "interaction through a channel",
                    path,
                    sub.lineno,
                    sub.col_offset,
                    {"class": node.name, "handler": name, "attr": held,
                     "access": sub.attr},
                )


# ------------------------------------------------------------------- P003


def check_shard_cut(program: Program) -> Iterator[Hit]:
    model, graph, scanned = program.par, program.flow_graph, program.scanned
    reported: set[tuple[str, int, str]] = set()
    for producer in graph.producers:
        if producer.event is None or producer.port_type in _CONTROL_PORTS:
            continue
        verdict = model.dist.verdict(producer.event)
        if verdict.wire_safe:
            continue
        for consumer in graph.consumers_for(
            producer.port_type, producer.direction, producer.event
        ):
            if not model.crosses_shard_cut(producer.component, consumer.component):
                continue
            path, line, col = producer.file, producer.line, producer.col
            if path not in scanned:
                path, line, col = consumer.file, consumer.line, consumer.col
            if path not in scanned:
                continue  # neither endpoint in the scanned set
            key = (path, line, producer.event)
            if key in reported:
                continue
            reported.add(key)
            reasons = "; ".join(verdict.reasons)
            yield (
                "P003",
                f"event {producer.event} flows from {producer.component} to "
                f"{consumer.component} on {producer.port_type} — the classes "
                "share no composite subtree, so this edge crosses a candidate "
                f"shard cut, but the event is not wire-safe ({reasons})",
                path,
                line,
                col,
                {
                    "event": producer.event,
                    "producer": producer.component,
                    "consumer": consumer.component,
                    "port_type": producer.port_type,
                    "reasons": list(verdict.reasons),
                },
            )


# ------------------------------------------------------------------- P004

#: Comparison operands that make an ``is`` check process-safe.
_SAFE_SINGLETONS = (type(None), bool, type(...))

#: Enum roots whose members pickle by name back to the canonical object,
#: so identity survives the boundary.
_ENUM_ROOTS = ("Enum", "IntEnum", "StrEnum", "Flag", "IntFlag")


def _identity_safe(expr: ast.expr, index: ProjectIndex) -> bool:
    """True when ``expr`` denotes an object whose identity survives the
    boundary: None/bool/Ellipsis, a class object, ``type(...)``, or an
    enum member (pickle resolves members by name)."""
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, _SAFE_SINGLETONS)
    if isinstance(expr, ast.Attribute):
        owner = base_name(expr.value)
        if owner is not None and any(
            index.descends_from(owner, root) for root in _ENUM_ROOTS
        ):
            return True  # EnumClass.MEMBER
        name = base_name(expr)
        return name is not None and name in index.classes
    if isinstance(expr, ast.Name):
        return expr.id in index.classes
    if isinstance(expr, ast.Call):
        return base_name(expr.func) == "type"
    return False


def check_identity_affinity(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node, module, path = info.node, info.module, str(info.module.path)
    handlers = program.handlers_of(node.name)
    for name in sorted(handlers):
        method = info.methods.get(name)
        if method is None:
            continue
        local = _local_names(method)
        for sub in ast.walk(method):
            if isinstance(sub, ast.Call):
                fn = sub.func
                if (
                    isinstance(fn, ast.Name)
                    and fn.id == "id"
                    and fn.id not in local
                    and fn.id not in module.imports
                ):
                    yield (
                        "P004",
                        f"handler {name} calls id(): the integer is only "
                        "meaningful inside this process and collides or "
                        "dangles across shard workers — key by value "
                        "(address, op id) instead",
                        path,
                        sub.lineno,
                        sub.col_offset,
                        {"class": node.name, "handler": name, "form": "id"},
                    )
            elif isinstance(sub, ast.Compare):
                left = sub.left
                for op, right in zip(sub.ops, sub.comparators):
                    if isinstance(op, (ast.Is, ast.IsNot)):
                        if not (
                            _identity_safe(left, program.index)
                            or _identity_safe(right, program.index)
                        ):
                            yield (
                                "P004",
                                f"handler {name} guards on object identity "
                                f"('{ast.unparse(left)} "
                                f"{'is' if isinstance(op, ast.Is) else 'is not'} "
                                f"{ast.unparse(right)}'): identity does not "
                                "survive a process boundary (decoded payloads "
                                "are fresh objects; Address preserves 'is' "
                                "only via intern()) — compare by value",
                                path,
                                sub.lineno,
                                sub.col_offset,
                                {"class": node.name, "handler": name,
                                 "form": "is"},
                            )
                    left = right


# ------------------------------------------------------------------- P005


def _nonblocking_call(call: ast.Call) -> bool:
    """True when the call explicitly opts out of blocking."""
    for kw in call.keywords:
        if kw.arg in ("block", "blocking") and isinstance(kw.value, ast.Constant):
            if kw.value.value is False:
                return True
    if call.args and isinstance(call.args[0], ast.Constant):
        if call.args[0].value is False:
            return True
    return False


def check_sync_primitives(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node, path = info.node, str(info.module.path)
    sync = program.par.sync_attrs(node.name)
    if not sync:
        return
    handlers = program.handlers_of(node.name)
    for name in sorted(handlers):
        method = info.methods.get(name)
        if method is None:
            continue
        selfname = first_param(method)
        if selfname is None:
            continue
        for sub in ast.walk(method):
            if isinstance(sub, ast.With):
                for item in sub.items:
                    attr = self_attr(item.context_expr, selfname)
                    if attr is None or attr not in sync:
                        continue
                    ctor, methods = sync[attr]
                    if "acquire" not in methods:
                        continue
                    yield (
                        "P005",
                        f"handler {name} enters 'with self.{attr}' "
                        f"({ctor}): the handler blocks a scheduler worker "
                        "until the holder releases — a lock-shaped stall "
                        "that can deadlock a shard's worker pool",
                        path,
                        item.context_expr.lineno,
                        item.context_expr.col_offset,
                        {"class": node.name, "handler": name, "attr": attr,
                         "ctor": ctor},
                    )
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                attr = self_attr(sub.func.value, selfname)
                if attr is None or attr not in sync:
                    continue
                ctor, methods = sync[attr]
                if sub.func.attr not in methods or _nonblocking_call(sub):
                    continue
                yield (
                    "P005",
                    f"handler {name} calls self.{attr}.{sub.func.attr}() "
                    f"({ctor}): the handler blocks a scheduler worker — a "
                    "lock-shaped stall that can deadlock a shard's worker "
                    "pool (hand the work to a dedicated thread outside the "
                    "handler, as ThreadTimer/TcpNetwork do)",
                    path,
                    sub.lineno,
                    sub.col_offset,
                    {"class": node.name, "handler": name, "attr": attr,
                     "ctor": ctor, "method": sub.func.attr},
                )


# ------------------------------------------------------------------- P006


def check_unpinnable(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node = info.node
    comp = program.dist.components.get(node.name)
    if comp is None or not comp.mutable_attrs or comp.has_state_hooks:
        return
    attrs = ", ".join(sorted(comp.mutable_attrs))
    yield (
        "P006",
        f"{node.name} holds mutable state ({attrs}) but overrides neither "
        "dump_state nor load_state: section-2.6 state transfer cannot "
        "migrate it, so the component is pinned to its birth shard — "
        "implement both hooks (or justify the pin with a noqa)",
        str(info.module.path),
        node.lineno,
        node.col_offset,
        {"class": node.name, "attrs": sorted(comp.mutable_attrs)},
    )


# --------------------------------------------------------------- registry

CLASS_CHECKS = (
    (COMPONENTS, check_divergent_state),    # P001
    (COMPONENTS, check_reach_through),      # P002
    (COMPONENTS, check_identity_affinity),  # P004
    (COMPONENTS, check_sync_primitives),    # P005
    (COMPONENTS, check_unpinnable),         # P006
)
PROGRAM_CHECKS = (check_shard_cut,)         # P003
