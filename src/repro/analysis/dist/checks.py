"""The D001–D006 checks over the program model.

Each check yields ``(rule, message, file, line, col, extra)`` hits; the
driver (:mod:`..driver`) walks the classes, applies rule selection and
``# repro: noqa[D...]`` suppression, and drops hits outside the scanned
files — the same contract as every other pass.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Optional

from ..config import AnalysisConfig
from ..flow.extract import _instance_map, _is_trigger
from ..program import (
    COMPONENTS,
    EVENTS,
    ClassInfo,
    Hit,
    Program,
    ProjectIndex,
    base_name,
    first_param,
    self_attr,
)
from .model import EventVerdict, _own_fields

_NETWORK_ROOT = "Network"


# ------------------------------------------------------------------- D001


def check_events(program: Program, info: ClassInfo) -> Iterator[Hit]:
    for fld in _own_fields(info, program.index):
        if fld.reason is None:
            continue
        yield (
            "D001",
            f"field {fld.name!r} of event {info.name} is annotated "
            f"{fld.annotation!r}: {fld.reason}; this payload cannot cross "
            "a process boundary",
            str(info.module.path),
            fld.line,
            None,
            {"event": info.name, "field": fld.name},
        )


# ------------------------------------------------- trigger payload walking


def _payload_nodes(expr: ast.expr) -> Iterator[tuple[ast.expr, bool]]:
    """Yield (node, shielded) over a payload expression.

    A node is *shielded* when it sits inside a call or a subscript: its
    value is derived (``tuple(self._view)``, ``self._view[0]``), so the
    container itself is not aliased into the payload.  Display literals
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
            return  # the lambda itself is the finding; skip its body
        for child in ast.iter_child_nodes(node):
            yield from visit(child, shielded)

    yield from visit(expr, False)


def _event_ctor(call: ast.Call, index: ProjectIndex) -> Optional[str]:
    if len(call.args) < 1 or not isinstance(call.args[0], ast.Call):
        return None
    name = base_name(call.args[0].func)
    if name and index.is_event(name):
        return name
    return None


def _ctor_payload_exprs(ctor: ast.Call) -> Iterator[ast.expr]:
    yield from ctor.args
    for kw in ctor.keywords:
        yield kw.value


def _lambda_captures(
    lam: ast.Lambda | ast.FunctionDef,
    selfname: Optional[str],
    loop_targets: Iterable[str],
) -> list[str]:
    """Names the closure captures that a process boundary would sever."""
    if isinstance(lam, ast.Lambda):
        params = {a.arg for a in lam.args.args + lam.args.kwonlyargs}
        body: list[ast.expr | ast.stmt] = [lam.body]
    else:
        params = {a.arg for a in lam.args.args + lam.args.kwonlyargs}
        body = list(lam.body)
    loaded: set[str] = set()
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                loaded.add(sub.id)
    interesting = set(loop_targets)
    if selfname:
        interesting.add(selfname)
    return sorted((loaded - params) & interesting)


def _loop_target_map(method: ast.FunctionDef) -> list[tuple[set[str], set[int]]]:
    """For each loop in ``method``: (target names, ids of contained nodes)."""
    out: list[tuple[set[str], set[int]]] = []
    for node in ast.walk(method):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            targets = {
                n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)
            }
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            targets = {
                n.id
                for gen in node.generators
                for n in ast.walk(gen.target)
                if isinstance(n, ast.Name)
            }
        else:
            continue
        out.append((targets, {id(sub) for sub in ast.walk(node)}))
    return out


def _loop_targets_around(
    node: ast.AST, loops: list[tuple[set[str], set[int]]]
) -> set[str]:
    found: set[str] = set()
    for targets, ids in loops:
        if id(node) in ids:
            found |= targets
    return found


# ----------------------------------------------------- D002 / D003 / D005


def check_component_methods(program: Program, info: ClassInfo) -> Iterator[Hit]:
    index = program.index
    path = str(info.module.path)
    comp = program.component_model(info)
    module_instances = _instance_map(info.module.tree.body, index)

    for method in info.methods.values():
        selfname = first_param(method)
        if selfname is None:
            continue
        loops = _loop_target_map(method)
        local_defs = {
            fd.name: fd
            for fd in ast.walk(method)
            if isinstance(fd, ast.FunctionDef) and fd is not method
        }
        instances = dict(module_instances)
        instances.update(_instance_map(list(ast.walk(method)), index))

        for call in (
            n for n in ast.walk(method) if isinstance(n, ast.Call)
        ):
            fn = call.func
            if self_attr(fn, selfname) == "subscribe" and call.args:
                yield from _check_subscribe_handler(
                    call, path, selfname, loops, local_defs
                )
            elif _is_trigger(fn):
                event = _event_ctor(call, index)
                if event is None:
                    continue
                ctor = call.args[0]
                assert isinstance(ctor, ast.Call)
                yield from _check_payload(
                    ctor, event, path, selfname, comp, instances, loops
                )


def _check_subscribe_handler(
    call: ast.Call,
    path: str,
    selfname: str,
    loops: list[tuple[set[str], set[int]]],
    local_defs: dict[str, ast.FunctionDef],
) -> Iterator[Hit]:
    handler = call.args[0]
    if isinstance(handler, ast.Lambda):
        captures = _lambda_captures(
            handler, selfname, _loop_targets_around(handler, loops)
        )
        detail = f" (captures {', '.join(captures)})" if captures else ""
        yield (
            "D003",
            "lambda subscribed as a handler cannot be re-established in "
            f"another process{detail}; subscribe a bound method instead",
            path,
            handler.lineno,
            handler.col_offset,
            {"captures": captures},
        )
    elif isinstance(handler, ast.Name) and handler.id in local_defs:
        fd = local_defs[handler.id]
        captures = _lambda_captures(fd, selfname, _loop_targets_around(fd, loops))
        detail = f" (captures {', '.join(captures)})" if captures else ""
        yield (
            "D003",
            f"local def {handler.id!r} subscribed as a handler cannot be "
            f"re-established in another process{detail}; use a method",
            path,
            call.lineno,
            call.col_offset,
            {"captures": captures},
        )


def _check_payload(
    ctor: ast.Call,
    event: str,
    path: str,
    selfname: str,
    comp,
    instances: dict[str, str],
    loops: list[tuple[set[str], set[int]]],
) -> Iterator[Hit]:
    for arg in _ctor_payload_exprs(ctor):
        for node, shielded in _payload_nodes(arg):
            if shielded:
                continue
            if isinstance(node, ast.Lambda):
                captures = _lambda_captures(
                    node, selfname, _loop_targets_around(node, loops)
                )
                detail = f" (captures {', '.join(captures)})" if captures else ""
                yield (
                    "D003",
                    f"payload of {event}(...) embeds a lambda; closures do "
                    f"not survive a process boundary{detail}",
                    path,
                    node.lineno,
                    node.col_offset,
                    {"event": event, "captures": captures},
                )
            elif isinstance(node, ast.Name):
                if node.id == selfname:
                    yield (
                        "D005",
                        f"payload of {event}(...) carries the component "
                        "itself; shard routing needs Address indirection, "
                        "not object identity",
                        path,
                        node.lineno,
                        node.col_offset,
                        {"event": event},
                    )
                elif node.id in instances:
                    yield (
                        "D005",
                        f"payload of {event}(...) carries component "
                        f"instance {node.id!r} ({instances[node.id]}); pass "
                        "its Address instead",
                        path,
                        node.lineno,
                        node.col_offset,
                        {"event": event, "component": instances[node.id]},
                    )
            elif (attr := self_attr(node, selfname)) is not None:
                if attr in comp.child_attrs:
                    yield (
                        "D005",
                        f"payload of {event}(...) carries child component "
                        f"self.{attr}; pass its Address instead",
                        path,
                        node.lineno,
                        node.col_offset,
                        {"event": event, "attr": attr},
                    )
                elif attr in comp.port_attrs:
                    yield (
                        "D005",
                        f"payload of {event}(...) carries port handle "
                        f"self.{attr}; ports are process-local runtime "
                        "objects",
                        path,
                        node.lineno,
                        node.col_offset,
                        {"event": event, "attr": attr},
                    )
                elif attr in comp.mutable_attrs:
                    yield (
                        "D002",
                        f"payload of {event}(...) aliases self.{attr} "
                        f"(mutable container assigned at line "
                        f"{comp.mutable_attrs[attr]}); sender and receiver "
                        "would share state a process boundary splits — "
                        "pass a snapshot (tuple(...)/dict(...)) instead",
                        path,
                        node.lineno,
                        node.col_offset,
                        {"event": event, "attr": attr},
                    )


# ------------------------------------------------------------------- D004


def check_component_state(program: Program, info: ClassInfo) -> Iterator[Hit]:
    comp = program.component_model(info)
    if comp.has_state_hooks or not comp.resource_attrs:
        return
    for attr, resource, line in comp.resource_attrs:
        yield (
            "D004",
            f"self.{attr} holds {resource} but {info.name} overrides "
            "neither dump_state nor load_state; section-2.6 state transfer "
            "cannot migrate this component across processes",
            str(info.module.path),
            line,
            None,
            {"component": info.name, "attr": attr, "resource": resource},
        )


# ------------------------------------------------------------------- D006


def check_codec_coverage(program: Program) -> Iterator[Hit]:
    model, scanned = program.dist, program.scanned
    crossing: dict[str, list] = {}
    for producer in program.flow_graph.producers:
        if producer.event is None:
            continue
        if not model.index.descends_from(producer.port_type, _NETWORK_ROOT):
            continue
        crossing.setdefault(producer.event, []).append(producer)
    for event in sorted(crossing):
        if event in model.registered:
            continue
        info = model.index.classes.get(event)
        sites = crossing[event]
        if info is not None and str(info.module.path) in scanned:
            path = str(info.module.path)
            line: int = info.node.lineno
            col: Optional[int] = info.node.col_offset
        else:
            anchored = [p for p in sites if p.file in scanned]
            if not anchored:
                continue  # event and every trigger live in framework context
            first = min(anchored, key=lambda p: (p.file, p.line))
            path = first.file
            line, col = first.line, first.col
        yield (
            "D006",
            f"{event} crosses the Network port ({len(sites)} trigger "
            "site(s)) with no compact-codec registration; register it with "
            "@register_compact or justify the pickle fallback",
            path,
            line,
            col,
            {"event": event, "sites": len(sites)},
        )


# --------------------------------------------------------------- registry

CLASS_CHECKS = (
    (EVENTS, check_events),                 # D001
    (COMPONENTS, check_component_methods),  # D002 / D003 / D005
    (COMPONENTS, check_component_state),    # D004
)
PROGRAM_CHECKS = (check_codec_coverage,)    # D006


def classify_events(
    paths: Iterable[Path | str], config: Optional[AnalysisConfig] = None
) -> dict[str, EventVerdict]:
    """D001 verdict per indexed event type, pre-suppression.

    This is the static half of the round-trip oracle: every event marked
    ``wire_safe`` here must pickle round-trip byte-stably, and every event
    that does not must carry at least one reason.
    """
    model = Program.load(paths, config).dist
    return {name: model.verdict(name) for name in model.event_names()}
