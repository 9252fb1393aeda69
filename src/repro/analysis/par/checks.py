"""The P005 and P006 checks over the program model.

Each check yields ``(rule, message, file, line, col, extra)`` hits; the
driver (:mod:`..driver`) walks the classes, applies rule selection and
``# repro: noqa[P...]`` suppression, and drops hits outside the scanned
files — the same contract as every other pass.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..program import COMPONENTS, ClassInfo, Hit, Program, first_param, self_attr

#: Constructors (resolved through the module's import table) whose result
#: is a synchronization primitive a handler must never block on.  The
#: value is the blocking method set for that primitive.
SYNC_CONSTRUCTORS: dict[str, frozenset[str]] = {
    "threading.Lock": frozenset({"acquire"}),
    "threading.RLock": frozenset({"acquire"}),
    "threading.Condition": frozenset({"acquire", "wait", "wait_for"}),
    "threading.Event": frozenset({"wait"}),
    "threading.Semaphore": frozenset({"acquire"}),
    "threading.BoundedSemaphore": frozenset({"acquire"}),
    "threading.Barrier": frozenset({"wait"}),
    "threading.Thread": frozenset({"join"}),
    "queue.Queue": frozenset({"get", "join"}),
    "queue.LifoQueue": frozenset({"get", "join"}),
    "queue.PriorityQueue": frozenset({"get", "join"}),
    "queue.SimpleQueue": frozenset({"get"}),
    "multiprocessing.Lock": frozenset({"acquire"}),
    "multiprocessing.RLock": frozenset({"acquire"}),
    "multiprocessing.Condition": frozenset({"acquire", "wait", "wait_for"}),
    "multiprocessing.Event": frozenset({"wait"}),
    "multiprocessing.Semaphore": frozenset({"acquire"}),
    "multiprocessing.Queue": frozenset({"get", "join"}),
    "multiprocessing.JoinableQueue": frozenset({"get", "join"}),
    "multiprocessing.Process": frozenset({"join"}),
}


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


def _sync_attrs(program: Program, component: str) -> dict[str, tuple[str, frozenset[str]]]:
    """attr -> (constructor, blocking methods) for sync primitives."""
    model = program.dist.components.get(component)
    if model is None:
        return {}
    out: dict[str, tuple[str, frozenset[str]]] = {}
    for attr, ctor, _line in model.resource_attrs:
        methods = SYNC_CONSTRUCTORS.get(ctor)
        if methods is not None:
            out[attr] = (ctor, methods)
    return out


def check_sync_primitives(program: Program, info: ClassInfo) -> Iterator[Hit]:
    node, path = info.node, str(info.module.path)
    sync = _sync_attrs(program, node.name)
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
                    "handler, as ThreadTimer/AioTcpNetwork do)",
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
    (COMPONENTS, check_sync_primitives),  # P005
    (COMPONENTS, check_unpinnable),       # P006
)
