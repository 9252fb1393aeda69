"""The M001, M002, M003 and M006 checks over the program model.

Each check yields ``(rule, message, file, line, col, extra)`` hits; the
driver (:mod:`..driver`) walks the classes, applies rule selection and
``# repro: noqa[M...]`` suppression, and drops hits outside the scanned
files — the same contract as every other pass.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from ..program import (
    ANY_KIND,
    COMPONENTS,
    EVENTS,
    ClassInfo,
    Hit,
    Program,
    base_name,
    first_param,
    self_attr,
)
from .model import INIT_METHODS

#: Method calls that grow a container / that shrink or bound one.
GROW_METHODS = frozenset(
    {"add", "append", "appendleft", "extend", "insert", "setdefault", "update"}
)
SHRINK_METHODS = frozenset(
    {"pop", "popitem", "popleft", "remove", "discard", "clear"}
)

#: default_factory callables that allocate a mutable container per event.
MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "Counter", "OrderedDict", "deque"}
)


# ------------------------------------------------------------------- M001


def check_missing_slots(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node, model = info.node, program.mem
    slot_info = model.slot_info_for(info)
    if slot_info.has_slots:
        return
    if not model.bases_complete(node.name):
        return  # a dict-based base keeps the __dict__ anyway: no win
    if slot_info.dynamic_writes:
        return  # slotting would break these writes
    fix = (
        "add slots=True to the @dataclass decorator"
        if slot_info.is_dataclass
        else "declare __slots__"
    )
    yield (
        "M001",
        f"{node.name} completes an already slotted base chain but has no "
        f"__slots__, so every instance pays a full __dict__; {fix}",
        str(info.module.path),
        node.lineno,
        node.col_offset,
        {"class": node.name, "dataclass": slot_info.is_dataclass},
    )


# ------------------------------------------------------------------- M006


def _mutable_factory(value: ast.expr) -> Optional[str]:
    """Name of a mutable default_factory in a ``field(...)`` call, or None."""
    if not (isinstance(value, ast.Call) and base_name(value.func) == "field"):
        return None
    for kw in value.keywords:
        if kw.arg != "default_factory":
            continue
        name = base_name(kw.value) if not isinstance(kw.value, ast.Lambda) else None
        if name in MUTABLE_FACTORIES:
            return name
        if isinstance(kw.value, ast.Lambda):
            body = kw.value.body
            if isinstance(body, (ast.Dict, ast.DictComp)):
                return "dict"
            if isinstance(body, (ast.List, ast.ListComp)):
                return "list"
            if isinstance(body, (ast.Set, ast.SetComp)):
                return "set"
            if isinstance(body, ast.Call):
                inner = base_name(body.func)
                if inner in MUTABLE_FACTORIES:
                    return inner
    return None


def check_heavy_defaults(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node = info.node
    for item in node.body:
        if not (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.value is not None
        ):
            continue
        factory = _mutable_factory(item.value)
        if factory is None:
            continue
        yield (
            "M006",
            f"event field {node.name}.{item.target.id} defaults to a fresh "
            f"{factory}() per instance; an empty-tuple sentinel (or a "
            "required field) avoids the per-event allocation",
            str(info.module.path),
            item.lineno,
            None,
            {"event": node.name, "field": item.target.id, "factory": factory},
        )


# ------------------------------------------------------------------- M002


def _growth_sites(
    method: ast.FunctionDef, selfname: str, mutable_attrs: Iterable[str]
) -> Iterator[tuple[str, int]]:
    attrs = set(mutable_attrs)
    for stmt in ast.walk(method):
        if isinstance(stmt, ast.Call):
            fn = stmt.func
            if isinstance(fn, ast.Attribute) and fn.attr in GROW_METHODS:
                attr = self_attr(fn.value, selfname)
                if attr in attrs:
                    yield attr, stmt.lineno
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    attr = self_attr(target.value, selfname)
                    if attr in attrs:
                        yield attr, stmt.lineno


def _shrink_attrs(info: ClassInfo) -> set[str]:
    """Attrs with a discard/del/clear/pop or replacement site in the class."""
    out: set[str] = set()
    for method in info.methods.values():
        selfname = first_param(method)
        if selfname is None:
            continue
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.Call):
                fn = stmt.func
                if isinstance(fn, ast.Attribute) and fn.attr in SHRINK_METHODS:
                    attr = self_attr(fn.value, selfname)
                    if attr is not None:
                        out.add(attr)
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    base = (
                        target.value if isinstance(target, ast.Subscript) else target
                    )
                    attr = self_attr(base, selfname)
                    if attr is not None:
                        out.add(attr)
            elif isinstance(stmt, ast.Assign) and method.name != "__init__":
                # wholesale replacement bounds the old container's growth;
                # covers tuple unpacks like ``old, self.x = self.x, []``
                for target in stmt.targets:
                    elts = (
                        target.elts
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for elt in elts:
                        attr = self_attr(elt, selfname)
                        if attr is not None:
                            out.add(attr)
    return out


def check_unbounded_growth(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node = info.node
    comp = program.component_model(info)
    if not comp.mutable_attrs:
        return
    handlers = program.handlers_of(node.name) - INIT_METHODS
    shrunk = _shrink_attrs(info)
    reported: set[str] = set()
    for name in sorted(handlers):
        method = info.methods.get(name)
        if method is None:
            continue
        selfname = first_param(method)
        if selfname is None:
            continue
        for attr, line in _growth_sites(method, selfname, comp.mutable_attrs):
            if attr in shrunk or attr in reported:
                continue
            reported.add(attr)
            yield (
                "M002",
                f"self.{attr} (mutable container assigned at line "
                f"{comp.mutable_attrs[attr]}) grows in handler {name} but "
                f"{node.name} never discards, deletes, clears, or replaces "
                "it — per-peer state grows without bound; add an eviction "
                "or TTL site",
                str(info.module.path),
                line,
                None,
                {"class": node.name, "attr": attr, "handler": name},
            )


# ------------------------------------------------------------------- M003


def _payload_nodes(expr: ast.expr) -> Iterator[tuple[ast.expr, bool]]:
    """Yield (node, shielded) over a stored expression.

    A node is *shielded* when it sits inside a call or a subscript: its
    value is derived (``tuple(event.entries)``, ``event.entries[0]``), so
    the object itself is not retained.  Display literals
    (tuples/lists/dicts) do not shield — they embed references directly.
    """

    def visit(node: ast.expr, shielded: bool) -> Iterator[tuple[ast.expr, bool]]:
        yield node, shielded
        if isinstance(node, (ast.Call, ast.Subscript)):
            for child in ast.iter_child_nodes(node):
                yield from visit(child, True)
            return
        if isinstance(node, ast.Attribute):
            # self._view is one reference; don't re-report its .value
            return
        if isinstance(node, ast.Lambda):
            return  # a lambda body runs later; building it stores nothing
        for child in ast.iter_child_nodes(node):
            yield from visit(child, shielded)

    yield from visit(expr, False)


def check_retained_event(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node, path = info.node, str(info.module.path)
    handlers = program.handlers_of(node.name) - INIT_METHODS
    for name in sorted(handlers):
        method = info.methods.get(name)
        if method is None:
            continue
        selfname = first_param(method)
        handler_info = info.handlers.get(name)
        param = handler_info.event_param if handler_info is not None else None
        if selfname is None or param is None or param == selfname:
            continue
        mutable_fields: set[str] = set()
        for event in program.handler_events.get((node.name, name), ()):
            mutable_fields |= program.mem.mutable_fields(event)

        def stored_values(stmt: ast.stmt) -> Iterator[ast.expr]:
            """Expressions this statement stores into self.* state."""
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                    call = stmt.value
                    fn = call.func
                    if (
                        isinstance(fn, ast.Attribute)
                        and fn.attr in GROW_METHODS
                        and self_attr(fn.value, selfname) is not None
                    ):
                        yield from call.args
                return
            for target in targets:
                base = target.value if isinstance(target, ast.Subscript) else target
                if self_attr(base, selfname) is not None:
                    yield value
                    return

        for stmt in ast.walk(method):
            if not isinstance(stmt, ast.stmt):
                continue
            for value in stored_values(stmt):
                for sub, shielded in _payload_nodes(value):
                    if shielded:
                        continue
                    if isinstance(sub, ast.Name) and sub.id == param:
                        yield (
                            "M003",
                            f"handler {name} stores the delivered event "
                            f"({param}) into self.* — the whole payload "
                            "graph stays alive and aliases across "
                            "deliveries; copy the needed fields out",
                            path,
                            sub.lineno,
                            sub.col_offset,
                            {"class": node.name, "handler": name},
                        )
                    elif (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == param
                        and sub.attr in mutable_fields
                    ):
                        yield (
                            "M003",
                            f"handler {name} stores mutable payload field "
                            f"{param}.{sub.attr} into self.* by reference; "
                            "sender and later deliveries alias it — copy "
                            "with tuple()/dict() at the store site",
                            path,
                            sub.lineno,
                            sub.col_offset,
                            {"class": node.name, "handler": name, "field": sub.attr},
                        )


# --------------------------------------------------------------- registry

CLASS_CHECKS = (
    (ANY_KIND, check_missing_slots),       # M001
    (EVENTS, check_heavy_defaults),        # M006
    (COMPONENTS, check_unbounded_growth),  # M002
    (COMPONENTS, check_retained_event),    # M003
)
