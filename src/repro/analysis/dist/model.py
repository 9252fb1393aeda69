"""Extraction model for the distribution-readiness pass.

Everything here is derived from the shared :mod:`..program` index — no
imports of analyzed code.  The model answers four questions per class:

- events: which annotated payload fields does it carry (own + inherited),
  and does each annotation ground to something that survives pickling?
- components: which ``self`` attributes are mutable containers, which hold
  OS resources, and does the class override the section-2.6
  state-transfer hooks?
- registrations: which event classes carry a compact-codec registration
  (``@register_compact`` or a ``register_compact(Event)`` call)?

Grounding is deliberately conservative: a bare name is only classified
through the module's import table or the project index, so a user class
that happens to be called ``Lock`` is never flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ..program import (
    COMPONENT_ROOT,
    EVENT_ROOT,
    ClassInfo,
    ModuleInfo,
    Program,
    ProjectIndex,
    base_name,
    dotted_name,
    self_attr,
)

#: Dotted-name prefixes whose instances hold OS state (threads, sockets,
#: files, queues, servers).  Matched against names resolved through the
#: module's import table, never against bare identifiers.
RESOURCE_PREFIXES = (
    "threading.",
    "_thread.",
    "socket.",
    "ssl.",
    "selectors.",
    "subprocess.",
    "multiprocessing.",
    "queue.",
    "concurrent.futures.",
    "socketserver.",
    "http.server.",
    "http.client.",
    "asyncio.",
    "io.",
    "mmap.",
    "sqlite3.",
    "weakref.",
)

#: Builtins/calls that open OS resources regardless of import table.
RESOURCE_BUILTINS = frozenset({"open"})

#: Calls returning a pair of OS resources: unpacked into two targets,
#: both hold one.
PAIR_RESOURCE_CALLS = frozenset({"socket.socketpair", "os.pipe", "multiprocessing.Pipe"})

#: Framework runtime objects that are meaningless in another process.
RUNTIME_NAMES = frozenset(
    {
        "Component",
        "ComponentCore",
        "ComponentDefinition",
        "ComponentSystem",
        "Channel",
        "Port",
        "PortCore",
        "Face",
        "Scheduler",
    }
)

#: Annotation names denoting callables/closures (never picklable by value).
CALLABLE_NAMES = frozenset(
    {
        "Callable",
        "FunctionType",
        "LambdaType",
        "MethodType",
        "Generator",
        "Coroutine",
        "Awaitable",
        "Iterator",
    }
)

#: Calls whose result is a mutable container.  Bare builtins plus the
#: collections constructors.
MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict"}
)


def _resolve_dotted(expr: ast.expr, module: ModuleInfo) -> Optional[str]:
    """Ground an annotation/call name through the module's import table.

    ``Lock`` with ``from threading import Lock`` -> ``threading.Lock``;
    ``threading.Lock`` with ``import threading`` -> ``threading.Lock``;
    an unimported bare name returns None (ungroundable -> silence).
    """
    if isinstance(expr, ast.Name):
        return module.imports.get(expr.id)
    dotted = dotted_name(expr)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    resolved_root = module.imports.get(root, root)
    return f"{resolved_root}.{rest}" if rest else resolved_root


# ----------------------------------------------------------------- events


@dataclass(frozen=True)
class FieldModel:
    """One annotated payload field of an event class."""

    event: str  # declaring class (may be a base of the queried event)
    name: str
    annotation: str
    reason: Optional[str]  # why unserializable; None = clean/ungroundable
    file: str
    line: int


@dataclass(frozen=True)
class EventVerdict:
    """The D001 verdict for one event type, pre-suppression.

    ``wire_safe`` ignores ``# repro: noqa[D001]`` comments on purpose: a
    suppressed finding silences the report, but the event still cannot
    cross a process boundary, so the round-trip oracle must not try.
    """

    name: str
    wire_safe: bool
    reasons: tuple[str, ...] = ()


def _annotation_leaves(ann: ast.expr) -> Iterable[ast.expr]:
    """Yield the groundable name leaves of an annotation expression."""
    if isinstance(ann, ast.Constant):
        if isinstance(ann.value, str):
            try:
                parsed = ast.parse(ann.value, mode="eval")
            except SyntaxError:
                return
            yield from _annotation_leaves(parsed.body)
        return
    if isinstance(ann, (ast.Name, ast.Attribute)):
        yield ann
        return
    if isinstance(ann, ast.Subscript):
        yield from _annotation_leaves(ann.value)
        yield from _annotation_leaves(ann.slice)
        return
    if isinstance(ann, ast.BinOp):  # X | Y unions
        yield from _annotation_leaves(ann.left)
        yield from _annotation_leaves(ann.right)
        return
    if isinstance(ann, (ast.Tuple, ast.List)):
        for elt in ann.elts:
            yield from _annotation_leaves(elt)
        return
    if isinstance(ann, ast.Lambda):
        yield ann  # a lambda in an annotation is its own finding


def classify_annotation(
    ann: ast.expr, module: ModuleInfo, index: ProjectIndex
) -> Optional[str]:
    """Reason the annotated type cannot cross a process boundary, or None."""
    for leaf in _annotation_leaves(ann):
        if isinstance(leaf, ast.Lambda):
            return "a lambda expression"
        bare = base_name(leaf)
        dotted = _resolve_dotted(leaf, module)
        if dotted is not None:
            for prefix in RESOURCE_PREFIXES:
                if dotted.startswith(prefix) or dotted == prefix.rstrip("."):
                    return f"OS resource type {dotted}"
        if bare is None:
            continue
        if bare in RUNTIME_NAMES:
            return f"framework runtime object {bare}"
        if bare in CALLABLE_NAMES:
            return f"callable type {bare}"
        if index.is_component(bare):
            return f"component reference ({bare})"
        if index.is_port_type(bare):
            return f"port reference ({bare})"
    return None


def _own_fields(info: ClassInfo, index: ProjectIndex) -> list[FieldModel]:
    """Annotated fields declared by one class (not its bases).

    Dataclass events declare fields as class-body ``AnnAssign``; plain
    events (e.g. :class:`~repro.core.fault.Fault`) annotate ``__init__``
    parameters instead, so those count when the body declares nothing.
    """
    out: list[FieldModel] = []
    path = str(info.module.path)
    for item in info.node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if item.target.id.startswith("_"):
                continue
            out.append(
                FieldModel(
                    event=info.name,
                    name=item.target.id,
                    annotation=ast.unparse(item.annotation),
                    reason=classify_annotation(item.annotation, info.module, index),
                    file=path,
                    line=item.lineno,
                )
            )
    if out:
        return out
    init = info.methods.get("__init__")
    if init is None:
        return out
    for arg in init.args.args[1:] + init.args.kwonlyargs:
        if arg.annotation is None:
            continue
        out.append(
            FieldModel(
                event=info.name,
                name=arg.arg,
                annotation=ast.unparse(arg.annotation),
                reason=classify_annotation(arg.annotation, info.module, index),
                file=path,
                line=arg.lineno,
            )
        )
    return out


# ------------------------------------------------------------- components


@dataclass
class ComponentModel:
    """Distribution-relevant view of one component class."""

    name: str
    file: str
    line: int
    #: self attribute -> line of the first mutable-container assignment
    mutable_attrs: dict[str, int] = field(default_factory=dict)
    #: (attr, dotted resource constructor, assignment line)
    resource_attrs: list[tuple[str, str, int]] = field(default_factory=list)
    has_state_hooks: bool = False


def _is_mutable_value(value: Optional[ast.expr]) -> bool:
    if isinstance(
        value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(value, ast.Call):
        name = base_name(value.func)
        return name in MUTABLE_CALLS
    return False


def _resource_call(value: Optional[ast.expr], module: ModuleInfo) -> Optional[str]:
    """Dotted name of an OS-resource constructor call, or None."""
    if not isinstance(value, ast.Call):
        return None
    bare = base_name(value.func)
    if bare in RESOURCE_BUILTINS and isinstance(value.func, ast.Name):
        return bare
    dotted = _resolve_dotted(value.func, module)
    if dotted is None:
        return None
    for prefix in RESOURCE_PREFIXES:
        if dotted.startswith(prefix):
            return dotted
    return None


def _bindings(
    target: ast.expr, value: Optional[ast.expr], module: ModuleInfo
) -> Iterator[tuple[ast.expr, Optional[ast.expr], Optional[str]]]:
    """``(target, value, resource)`` for each single target an assignment
    binds.  Tuple and list targets unpack a tuple or list value pairwise;
    unpacking a pair-returning call gives both targets its resource; an
    unpacked value the model cannot split binds nothing it knows."""
    if not isinstance(target, (ast.Tuple, ast.List)):
        yield target, value, _resource_call(value, module)
        return
    if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(target.elts):
        for part, part_value in zip(target.elts, value.elts):
            yield from _bindings(part, part_value, module)
        return
    if isinstance(value, ast.Call) and len(target.elts) == 2:
        pair = _resolve_dotted(value.func, module)
        if pair in PAIR_RESOURCE_CALLS:
            for part in target.elts:
                yield part, None, pair


def build_component_model(
    info: ClassInfo, index: ProjectIndex
) -> ComponentModel:
    model = ComponentModel(
        name=info.name,
        file=str(info.module.path),
        line=info.node.lineno,
        has_state_hooks=(
            index.lookup_method(info.name, "dump_state") is not None
            and index.lookup_method(info.name, "load_state") is not None
        ),
    )
    for method in info.methods.values():
        selfname = method.args.args[0].arg if method.args.args else None
        if selfname is None:
            continue
        for stmt in ast.walk(method):
            targets: list[ast.expr]
            value: Optional[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            for target in targets:
                for single, part, resource in _bindings(target, value, info.module):
                    attr = self_attr(single, selfname)
                    if attr is None:
                        continue
                    if _is_mutable_value(part):
                        model.mutable_attrs.setdefault(attr, stmt.lineno)
                    if resource is not None:
                        model.resource_attrs.append((attr, resource, stmt.lineno))
    return model


# ------------------------------------------------------------------ model


@dataclass
class DistModel:
    """Everything the D checks need, shared across rules."""

    index: ProjectIndex
    #: event class name -> own annotated fields (framework classes included)
    event_fields: dict[str, list[FieldModel]]
    #: component class name -> model (framework classes included)
    components: dict[str, ComponentModel]
    #: event class names with a compact-codec registration anywhere
    registered: set[str]

    def fields_of(self, event: str) -> list[FieldModel]:
        """Own + inherited fields of ``event``, base classes first."""
        chain: list[str] = []
        seen: set[str] = set()
        frontier = [event]
        while frontier:
            current = frontier.pop(0)
            if current in seen or current == EVENT_ROOT:
                continue
            seen.add(current)
            chain.append(current)
            frontier.extend(self.index.bases.get(current, ()))
        out: list[FieldModel] = []
        for name in reversed(chain):
            out.extend(self.event_fields.get(name, ()))
        return out

    def verdict(self, event: str) -> EventVerdict:
        reasons = tuple(
            f"field {f.name!r} ({f.event}.{f.name}: {f.annotation}): {f.reason}"
            for f in self.fields_of(event)
            if f.reason is not None
        )
        return EventVerdict(event, wire_safe=not reasons, reasons=reasons)

    def event_names(self) -> list[str]:
        """All indexed classes descending from ``Event`` (sorted)."""
        return sorted(
            name
            for name in self.index.classes
            if name != EVENT_ROOT and self.index.is_event(name)
        )


def _scan_registrations(module: ModuleInfo, registered: set[str]) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if base_name(target) == "register_compact":
                    registered.add(node.name)
        elif isinstance(node, ast.Call):
            if base_name(node.func) == "register_compact" and node.args:
                name = base_name(node.args[0])
                if name:
                    registered.add(name)


def build_dist_model(program: Program) -> DistModel:
    """Model every indexed event and component, framework included.

    Framework classes are modelled so inherited fields and base classes
    ground; findings are only ever anchored in scanned files — same
    contract as the flow pass.
    """
    index = program.index
    event_fields: dict[str, list[FieldModel]] = {}
    components: dict[str, ComponentModel] = {}
    registered: set[str] = set()
    for name, info in index.classes.items():
        if name == EVENT_ROOT or name == COMPONENT_ROOT:
            continue
        if index.is_event(name):
            event_fields[name] = _own_fields(info, index)
        if index.is_component(name):
            components[name] = program.component_model(info)
    for module in program.all_modules:
        _scan_registrations(module, registered)
    return DistModel(index, event_fields, components, registered)
