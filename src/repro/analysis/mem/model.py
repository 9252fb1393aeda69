"""Extraction model for the memory-footprint pass.

Everything here is derived from the shared :mod:`..program` index — no
imports of analyzed code.  The model answers two questions per class
(which methods run as handlers, and what they receive, is
:attr:`Program.handler_events <repro.analysis.program.Program.handler_events>`):

- slotting: does the class declare ``__slots__`` (literally or via
  ``@dataclass(slots=True)``), which instance attributes does it declare,
  and is its entire base chain slot-complete?
- payloads: which annotated fields of an event type are mutable
  containers (the part of a payload a handler must not retain by
  reference)?

Grounding is conservative: a base class the index cannot resolve makes
the chain incomplete (M001 degrades to silence), and an annotation that
does not ground to a known mutable container never marks a field
mutable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Optional

from ..program import (
    ClassInfo,
    Program,
    ProjectIndex,
    base_name,
    is_classvar,
    self_attr,
)

#: Annotation/default-factory roots denoting mutable containers.
MUTABLE_CONTAINER_NAMES = frozenset(
    {
        "list", "dict", "set", "bytearray", "deque", "defaultdict",
        "Counter", "OrderedDict", "List", "Dict", "Set",
        "MutableMapping", "MutableSequence", "MutableSet",
    }
)

#: Unindexed bases that still leave the instance layout __dict__-free.
_SLOTTED_LEAVES = frozenset({"object"})

#: Methods allowed to create instance attributes on a slotted class.
INIT_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "dump_state", "load_state"}
)


@dataclass(frozen=True)
class SlotInfo:
    """Static slotting facts for one class definition."""

    name: str
    has_slots: bool
    is_dataclass: bool
    #: (attr, line, method) for self-attribute creation outside
    #: :data:`INIT_METHODS` of an attribute the class does not declare;
    #: an M001 guard (slotting a class that grows attributes dynamically
    #: would break it)
    dynamic_writes: tuple[tuple[str, int, str], ...]


def _decorator_call(deco: ast.expr) -> tuple[Optional[str], Optional[ast.Call]]:
    if isinstance(deco, ast.Call):
        return base_name(deco.func), deco
    return base_name(deco), None


def _dataclass_slots(node: ast.ClassDef) -> tuple[bool, bool]:
    """(is_dataclass, slots=True present) from the decorator list."""
    for deco in node.decorator_list:
        name, call = _decorator_call(deco)
        if name != "dataclass":
            continue
        if call is None:
            return True, False
        for kw in call.keywords:
            if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                return True, bool(kw.value.value)
        return True, False
    return False, False


def _slots_literal(value: ast.expr) -> Optional[frozenset[str]]:
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return frozenset({value.value})
    if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
        names = set()
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                names.add(elt.value)
        return frozenset(names)
    return None  # computed __slots__: counts as slotted, fields unknown


def _self_attr_writes(
    method: ast.FunctionDef,
) -> Iterable[tuple[str, int]]:
    """(attr, line) for every instance-attribute creation in ``method``.

    Covers ``self.x = ...`` (plain, annotated, augmented — augmented
    cannot create, but a slotted class still needs the name declared) and
    the frozen-dataclass idiom ``object.__setattr__(self, "x", ...)``.
    """
    if not method.args.args:
        return
    selfname = method.args.args[0].arg
    for node in ast.walk(method):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and fn.attr == "__setattr__"
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "object"
                and len(node.args) >= 3
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == selfname
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                yield node.args[1].value, node.lineno
            continue
        for target in targets:
            attr = self_attr(target, selfname)
            if attr is not None:
                yield attr, node.lineno


def build_slot_info(info: ClassInfo) -> SlotInfo:
    node = info.node
    is_dataclass, dc_slots = _dataclass_slots(node)
    declared: set[str] = set()
    has_slots = dc_slots
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if not is_classvar(item.annotation):
                declared.add(item.target.id)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__slots__":
                    has_slots = True
                    names = _slots_literal(item.value)
                    if names is not None:
                        declared.update(names)
                else:
                    declared.add(target.id)
    declared.update(info.methods)
    for method in info.methods.values():
        if method.name in INIT_METHODS:
            declared.update(attr for attr, _ in _self_attr_writes(method))

    dynamic: list[tuple[str, int, str]] = []
    for method in info.methods.values():
        if method.name in INIT_METHODS:
            continue
        for attr, line in _self_attr_writes(method):
            if attr not in declared:
                dynamic.append((attr, line, method.name))
    dynamic.sort(key=lambda item: item[1])
    return SlotInfo(
        name=node.name,
        has_slots=has_slots,
        is_dataclass=is_dataclass,
        dynamic_writes=tuple(dynamic),
    )


def _annotation_mutable(ann: ast.expr) -> bool:
    """True when the annotated type is (or may be) a mutable container.

    Checks the outermost constructor, looking through ``Optional``/union
    arms and string annotations; ``tuple[dict, ...]`` is *not* flagged —
    the retained object itself is immutable.
    """
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            return _annotation_mutable(ast.parse(ann.value, mode="eval").body)
        except SyntaxError:
            return False
    if isinstance(ann, (ast.Name, ast.Attribute)):
        return base_name(ann) in MUTABLE_CONTAINER_NAMES
    if isinstance(ann, ast.Subscript):
        root = base_name(ann.value)
        if root in ("Optional", "Union"):
            arms = (
                ann.slice.elts if isinstance(ann.slice, ast.Tuple) else [ann.slice]
            )
            return any(_annotation_mutable(arm) for arm in arms)
        return root in MUTABLE_CONTAINER_NAMES
    if isinstance(ann, ast.BinOp):  # X | Y unions
        return _annotation_mutable(ann.left) or _annotation_mutable(ann.right)
    return False


@dataclass
class MemModel:
    """Everything the M checks need, shared across rules."""

    index: ProjectIndex
    #: class name -> slotting facts (framework classes included)
    slots: dict[str, SlotInfo]

    def slot_info_for(self, info: ClassInfo) -> SlotInfo:
        """Facts for one definition; re-derived when the name was reused."""
        indexed = self.index.classes.get(info.name)
        if indexed is not None and indexed.node is info.node:
            return self.slots[info.name]
        return build_slot_info(info)

    def chain_complete(self, name: str, _seen: Optional[set[str]] = None) -> bool:
        """True when ``name`` and every base up the chain is slotted.

        An unresolvable base makes the chain incomplete: M001 must only
        claim a win when adding ``__slots__`` actually removes the
        instance ``__dict__``.
        """
        if name in _SLOTTED_LEAVES:
            return True
        seen = _seen if _seen is not None else set()
        if name in seen:
            return True  # cycles cannot add a __dict__ the chain lacks
        seen.add(name)
        info = self.slots.get(name)
        if info is None or not info.has_slots:
            return False
        bases = self.index.bases.get(name) or {"object"}
        return all(self.chain_complete(base, seen) for base in bases)

    def bases_complete(self, name: str) -> bool:
        """True when every base chain above ``name`` is slot-complete."""
        bases = self.index.bases.get(name) or {"object"}
        return all(self.chain_complete(base) for base in bases)

    def mutable_fields(self, event: str) -> set[str]:
        """Field names of ``event`` (own + inherited) annotated mutable."""
        out: set[str] = set()
        seen: set[str] = set()
        frontier = [event]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.index.classes.get(current)
            if info is None:
                continue
            for item in info.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    if _annotation_mutable(item.annotation):
                        out.add(item.target.id)
            frontier.extend(self.index.bases.get(current, ()))
        return out


def build_mem_model(program: Program) -> MemModel:
    """Slotting facts for every indexed class, framework included, so
    inherited slot chains ground."""
    index = program.index
    return MemModel(
        index, {name: build_slot_info(info) for name, info in index.classes.items()}
    )
