"""Extraction model for the shard-safety pass.

Everything here is derived from the shared :mod:`..program` model — its
index, its dist facet (component/event models) and its flow graph — with
no imports of analyzed code.  Which methods run as handlers is
:meth:`Program.handlers_of <repro.analysis.program.Program.handlers_of>`;
this model answers three more questions:

- shared state: which module-level and class-level names are bound to
  mutable containers, and which ``self`` attributes hold references to
  other component instances or synchronization primitives?
- containment: which component classes does each composite create
  (``self.create(...)``), giving the static subtree relation that defines
  candidate shard cuts — two classes with no common containing composite
  can land in different worker processes?
- wire safety: can an event type cross a process boundary (the dist
  pass's picklability verdict)?

Grounding is conservative throughout: a receiver the import table cannot
resolve, a base class outside the index, or a wildcard event degrade to
silence, never to a guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from ..dist.model import DistModel, _is_mutable_value
from ..program import (
    ClassInfo,
    ModuleInfo,
    Program,
    ProjectIndex,
    base_name,
    is_classvar,
    self_attr,
)

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

#: Attributes of a ``Component`` handle that are part of the port-access
#: API and therefore safe to touch from handler code.
COMPONENT_HANDLE_API = frozenset({"provided", "required", "name"})

#: Handle attributes A003 already reports (the escape hatches); P002
#: stays silent on them to keep one finding per defect.
A003_ATTRS = frozenset({"definition", "core"})

#: Method calls that mutate a container in place.  Used as *mutation
#: evidence*: a module- or class-level container nobody ever mutates is a
#: constant lookup table and identical in every process, so P001 stays
#: silent on it.
MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "setdefault",
        "update",
    }
)


@dataclass(frozen=True)
class SharedState:
    """Mutable module-level and class-level bindings of one module."""

    #: module-level name -> line of the first mutable-container binding
    module_mutables: dict[str, int]
    #: bare names with mutation evidence anywhere in the module (mutator
    #: method calls, subscript writes/deletes, or ``global`` declarations)
    module_mutated: frozenset[str]
    #: class name -> {class-body attr -> line} for mutable class attrs
    class_mutables: dict[str, dict[str, int]]


def class_body_mutables(node: ast.ClassDef) -> dict[str, int]:
    """Class-body names bound to mutable containers (shared class attrs)."""
    attrs: dict[str, int] = {}
    for item in node.body:
        if isinstance(item, ast.Assign):
            if not _is_mutable_value(item.value):
                continue
            for target in item.targets:
                if isinstance(target, ast.Name):
                    attrs.setdefault(target.id, item.lineno)
        elif (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.value is not None
            and is_classvar(item.annotation)
            and _is_mutable_value(item.value)
        ):
            attrs.setdefault(item.target.id, item.lineno)
    return attrs


def _mutated_bare_names(tree: ast.AST) -> frozenset[str]:
    """Bare names with in-place mutation evidence anywhere in ``tree``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr in MUTATOR_METHODS
                and isinstance(fn.value, ast.Name)
            ):
                out.add(fn.value.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    out.add(target.value.id)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    out.add(target.value.id)
        elif isinstance(node, ast.Global):
            out.update(node.names)
    return frozenset(out)


def build_shared_state(module: ModuleInfo) -> SharedState:
    """Mutable module-level names and class-level attrs of ``module``."""
    module_mutables: dict[str, int] = {}
    for stmt in module.tree.body:
        targets: list[ast.expr]
        value: Optional[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                module_mutables.setdefault(target.id, stmt.lineno)

    class_mutables: dict[str, dict[str, int]] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        attrs = class_body_mutables(node)
        if attrs:
            class_mutables[node.name] = attrs
    return SharedState(
        module_mutables, _mutated_bare_names(module.tree), class_mutables
    )


def _annotated_component(ann: Optional[ast.expr], index: ProjectIndex) -> bool:
    """True when an annotation grounds to a component class."""
    if ann is None:
        return False
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return False
    name = base_name(ann) if isinstance(ann, (ast.Name, ast.Attribute)) else None
    return name is not None and index.is_component(name)


def held_definitions(info: ClassInfo, index: ProjectIndex) -> frozenset[str]:
    """``self`` attributes of ``info`` holding another ``ComponentDefinition``
    instance directly: constructed, or received through an annotated
    parameter/field.  (``Component`` handles from ``self.create(...)`` are
    the component model's ``child_attrs``.)"""
    definition_attrs: set[str] = set()
    for method in info.methods.values():
        selfname = method.args.args[0].arg if method.args.args else None
        if selfname is None:
            continue
        component_params = {
            arg.arg
            for arg in method.args.args[1:] + method.args.kwonlyargs
            if _annotated_component(arg.annotation, index)
        }
        for stmt in ast.walk(method):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            for target in targets:
                attr = self_attr(target, selfname)
                if attr is None:
                    continue
                if isinstance(stmt, ast.AnnAssign) and _annotated_component(
                    stmt.annotation, index
                ):
                    definition_attrs.add(attr)
                if isinstance(value, ast.Call):
                    fn = value.func
                    if self_attr(fn, selfname) == "create":
                        continue
                    ctor = base_name(fn)
                    if ctor is not None and index.is_component(ctor):
                        definition_attrs.add(attr)
                elif isinstance(value, ast.Name) and value.id in component_params:
                    definition_attrs.add(attr)
    return frozenset(definition_attrs)


def _created_classes(info: ClassInfo) -> set[str]:
    """Component classes ``info`` instantiates via ``self.create(...)``."""
    out: set[str] = set()
    for method in info.methods.values():
        selfname = method.args.args[0].arg if method.args.args else None
        if selfname is None:
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if self_attr(node.func, selfname) == "create":
                name = base_name(node.args[0])
                if name is not None:
                    out.add(name)
    return out


@dataclass
class ParModel:
    """Everything the P checks need, shared across rules."""

    dist: DistModel
    #: module path -> shared-state facts
    shared: dict[str, SharedState]
    #: component class name -> attrs holding another component definition
    held_definitions: dict[str, frozenset[str]]
    #: component class name -> component classes it creates
    creates: dict[str, set[str]]
    _subtrees: dict[str, frozenset[str]] = field(default_factory=dict)

    def subtree(self, component: str) -> frozenset[str]:
        """``component`` plus every class reachable through ``create``."""
        cached = self._subtrees.get(component)
        if cached is not None:
            return cached
        out: set[str] = set()
        frontier = [component]
        while frontier:
            current = frontier.pop()
            if current in out:
                continue
            out.add(current)
            frontier.extend(self.creates.get(current, ()))
        result = frozenset(out)
        self._subtrees[component] = result
        return result

    def crosses_shard_cut(self, producer: str, consumer: str) -> bool:
        """True when no composite statically contains both classes.

        Shards partition *root subtrees* across worker processes; an edge
        between two classes that never co-occur under one composite can
        therefore land across a process boundary.  Module-level trigger
        sites (``<module>``) model the coordinator/driver process and
        always count as a separate shard.
        """
        if producer == consumer:
            return False
        if producer == "<module>" or consumer == "<module>":
            return True
        for candidate in self.creates:
            tree = self.subtree(candidate)
            if producer in tree and consumer in tree:
                return False
        return True

    def sync_attrs(self, component: str) -> dict[str, tuple[str, frozenset[str]]]:
        """attr -> (constructor, blocking methods) for sync primitives."""
        model = self.dist.components.get(component)
        if model is None:
            return {}
        out: dict[str, tuple[str, frozenset[str]]] = {}
        for attr, ctor, _line in model.resource_attrs:
            methods = SYNC_CONSTRUCTORS.get(ctor)
            if methods is not None:
                out[attr] = (ctor, methods)
        return out


def build_par_model(program: Program) -> ParModel:
    """Shared-state facts per scanned module; handle and containment
    facts per indexed component (framework included, so subtrees ground)."""
    index = program.index
    shared = {
        path: build_shared_state(module)
        for path, module in program.scanned.items()
    }
    held: dict[str, frozenset[str]] = {}
    creates: dict[str, set[str]] = {}
    for name, info in index.classes.items():
        if not index.is_component(name):
            continue
        held[name] = held_definitions(info, index)
        created = _created_classes(info)
        if created:
            creates[name] = created
    return ParModel(program.dist, shared, held, creates)
