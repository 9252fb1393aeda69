"""The program model every static pass reads: one scan, one index.

:meth:`Program.load` walks the given paths once — ``exclude`` globs,
:func:`parse_module`, then the installed ``repro`` package as *context*
(indexed so linting ``examples/`` alone still knows the framework's
types, never reported on) — and builds the name-level
:class:`ProjectIndex`: class hierarchies by name, so a rule can ask
whether a name is a component, an event or a port type.  Nothing is
imported or executed.

Everything a rule family derives from that scan is a lazily computed,
cached attribute of the one :class:`Program` object, so a pass that
needs the flow graph or the dist model never rebuilds what an earlier
pass already built:

- :attr:`Program.classes` — the class walk over the scanned files;
- :attr:`Program.flow_graph` — producers/consumers per (port type,
  direction, event type); read by flow, dist (D006) and the handler map;
- :attr:`Program.handler_events` / :meth:`Program.handlers_of` — which
  methods run as handlers and what they receive; read by mem and par;
- :meth:`Program.component_model`, :attr:`Program.dist` — per-component
  state facts, event payload fields and codec registrations; read by
  dist, mem (M002) and par (P005/P006);
- :attr:`Program.mem` — slotting facts.

Name resolution is deliberately name-based (no import graph evaluation):
a class named ``Network`` is assumed to be *the* ``Network`` the index
knows.  That heuristic is exact for this repository's layout and degrades
to silence — never to false positives — when a name is unknown: every
rule skips checks it cannot ground in the index.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

from .config import AnalysisConfig

if TYPE_CHECKING:
    from .dist.model import ComponentModel, DistModel
    from .flow.graph import FlowGraph
    from .mem.model import MemModel

#: Root class names anchoring the three hierarchies the passes reason about.
COMPONENT_ROOT = "ComponentDefinition"
PORT_ROOT = "PortType"
EVENT_ROOT = "Event"

_ROOT_OF_KIND = {
    "component": COMPONENT_ROOT,
    "event": EVENT_ROOT,
    "port": PORT_ROOT,
}

#: What a check yields: ``(rule, message, file, line, col, extra)``.
Hit = tuple[str, str, str, Optional[int], Optional[int], dict]

#: Class kinds a check registers for (see :meth:`Program.kinds`).
COMPONENTS = frozenset({"component"})
EVENTS = frozenset({"event"})
ANY_KIND = frozenset(_ROOT_OF_KIND)


# ------------------------------------------------------------ AST helpers


def base_name(node: ast.expr) -> Optional[str]:
    """Unqualified name of a class/call expression (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.C`` -> ``"a.b.C"``; plain names return themselves."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def first_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Optional[str]:
    """Name of the receiver parameter (``self``) of a method."""
    args = fn.args.posonlyargs + fn.args.args
    return args[0].arg if args else None


def self_attr(expr: ast.expr, selfname: str) -> Optional[str]:
    """``self.attr`` -> ``"attr"``; anything else -> None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == selfname
    ):
        return expr.attr
    return None


def is_classvar(ann: ast.expr) -> bool:
    for node in ast.walk(ann):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if base_name(node) == "ClassVar":
                return True
    return False


# ------------------------------------------------------------------ index


@dataclass
class HandlerInfo:
    """One handler method of a component class."""

    name: str
    node: ast.FunctionDef
    event_type: Optional[str]  # from @handles(...), None if undeclared
    event_param: Optional[str]  # name of the event parameter


@dataclass
class ClassInfo:
    """Index record for one class definition."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    handlers: dict[str, HandlerInfo] = field(default_factory=dict)

    @classmethod
    def from_node(cls, module: "ModuleInfo", node: ast.ClassDef) -> "ClassInfo":
        info = cls(
            node.name, module, node,
            tuple(b for b in map(base_name, node.bases) if b),
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = item
                info.handlers[item.name] = HandlerInfo(
                    item.name, item, _handles_decorator(item), _event_param(item)
                )
        return info


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    tree: ast.Module
    lines: list[str]
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted name

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class ProjectIndex:
    """Name-level view of every class in the scanned file set."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}
        self.bases: dict[str, set[str]] = {}

    # ------------------------------------------------------------- building

    def add_module(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                info = ClassInfo.from_node(module, node)
                self.classes[node.name] = info
                self.bases.setdefault(node.name, set()).update(info.bases)

    # ------------------------------------------------------------- hierarchy

    def descends_from(self, name: str, root: str) -> bool:
        """Name-level transitive subclass check (``name`` may equal ``root``)."""
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current == root:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.bases.get(current, ()))
        return False

    def is_component(self, name: str) -> bool:
        return self.descends_from(name, COMPONENT_ROOT)

    def is_event(self, name: str) -> bool:
        return self.descends_from(name, EVENT_ROOT)

    def is_port_type(self, name: str) -> bool:
        return self.descends_from(name, PORT_ROOT)

    def events_related(self, a: str, b: str) -> bool:
        """True when one event type is a (reflexive) subtype of the other."""
        return self.descends_from(a, b) or self.descends_from(b, a)

    def lookup_method(self, cls: str, method: str) -> Optional[HandlerInfo]:
        """Resolve ``method`` through ``cls`` and its indexed bases."""
        seen: set[str] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is not None:
                if method in info.handlers:
                    return info.handlers[method]
                frontier.extend(info.bases)
            else:
                frontier.extend(self.bases.get(current, ()))
        return None


def _handles_decorator(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Optional[str]:
    for decorator in fn.decorator_list:
        if isinstance(decorator, ast.Call):
            name = base_name(decorator.func)
            if name == "handles" and decorator.args:
                return base_name(decorator.args[0])
    return None


def _event_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Optional[str]:
    args = fn.args.posonlyargs + fn.args.args
    if len(args) >= 2:  # (self, event, ...)
        return args[1].arg
    return None


# ---------------------------------------------------------------------- scan


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


#: Parse cache: resolved path -> ((mtime_ns, size), ModuleInfo).  A
#: process that loads several programs (the test suite, a per-family
#: ``analyze_paths`` call after another) parses each unchanged file once.
_parse_cache: dict[Path, tuple[tuple[int, int], ModuleInfo]] = {}


def clear_parse_cache() -> None:
    _parse_cache.clear()


def parse_module(path: Path) -> Optional[ModuleInfo]:
    try:
        resolved = path.resolve()
        stat = resolved.stat()
    except OSError:
        return None
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _parse_cache.get(resolved)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    try:
        source = resolved.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError):
        return None
    module = ModuleInfo(path, tree, source.splitlines())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                module.imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    _parse_cache[resolved] = (stamp, module)
    return module


def module_name(path: Path) -> str:
    """The dotted name ``path`` imports as, from the package folders above it."""
    path = path.resolve()
    parts = [] if path.stem == "__init__" else [path.stem]
    folder = path.parent
    while (folder / "__init__.py").is_file():
        parts.insert(0, folder.name)
        folder = folder.parent
    return ".".join(parts)


def _framework_registry_paths() -> list[Path]:
    """The installed ``repro`` package, indexed (not reported on) for type info."""
    try:
        import repro
    except ImportError:  # pragma: no cover - repro is always importable here
        return []
    return [Path(repro.__file__).parent]


def build_index(
    context: Iterable[ModuleInfo], modules: Iterable[ModuleInfo]
) -> ProjectIndex:
    """Index the framework context first, so a scanned class wins a name."""
    index = ProjectIndex()
    for module in (*context, *modules):
        index.add_module(module)
    return index


# ------------------------------------------------------------------- model


class Program:
    """One scanned path set plus every fact the passes derive from it."""

    def __init__(
        self,
        scanned: dict[str, ModuleInfo],
        context: list[ModuleInfo],
        index: ProjectIndex,
    ) -> None:
        #: file path as reported in findings -> module; findings are only
        #: ever anchored here (the framework is context, not the subject)
        self.scanned = scanned
        #: framework modules outside the scanned set
        self.context = context
        self.index = index
        self._kinds: dict[str, frozenset[str]] = {}
        self._component_models: dict[int, "ComponentModel"] = {}

    @classmethod
    def load(
        cls,
        paths: Iterable[Path | str],
        config: Optional[AnalysisConfig] = None,
    ) -> "Program":
        config = config or AnalysisConfig()
        scanned: dict[str, ModuleInfo] = {}
        for path in iter_python_files(paths):
            if config.path_excluded(path):
                continue
            module = parse_module(path)
            if module is not None:
                scanned[str(module.path)] = module
        # By module name, not by file: a scanned copy of the framework
        # replaces the importable one even where the two paths differ.
        seen = {module_name(module.path) for module in scanned.values()}
        context: list[ModuleInfo] = []
        for path in iter_python_files(_framework_registry_paths()):
            if module_name(path) in seen:
                continue
            module = parse_module(path)
            if module is not None:
                context.append(module)
        return cls(scanned, context, build_index(context, scanned.values()))

    @property
    def all_modules(self) -> list[ModuleInfo]:
        """Scanned modules first, then the framework context."""
        return [*self.scanned.values(), *self.context]

    # -------------------------------------------------------------- classes

    @cached_property
    def classes(self) -> list[ClassInfo]:
        """Every class definition in the scanned files, in walk order.

        The index holds the *last* definition of a reused name; any other
        definition gets a record re-bound to the node actually seen.
        """
        out: list[ClassInfo] = []
        for module in self.scanned.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                info = self.index.classes.get(node.name)
                if info is None or info.node is not node:
                    info = ClassInfo.from_node(module, node)
                out.append(info)
        return out

    def kinds(self, name: str) -> frozenset[str]:
        """Which hierarchies (component/event/port) ``name`` belongs to.

        The three root classes themselves belong to none: they are the
        framework's anchors, not subjects of any rule.
        """
        cached = self._kinds.get(name)
        if cached is None:
            if name in _ROOT_OF_KIND.values():
                cached = frozenset()
            else:
                cached = frozenset(
                    kind
                    for kind, root in _ROOT_OF_KIND.items()
                    if self.index.descends_from(name, root)
                )
            self._kinds[name] = cached
        return cached

    # ------------------------------------------------------------- handlers

    @cached_property
    def flow_graph(self) -> "FlowGraph":
        from .flow.graph import build_flow_graph

        return build_flow_graph(self)

    @cached_property
    def handler_events(self) -> dict[tuple[str, str], set[str]]:
        """(component class, method name) -> event type names it receives.

        Joins every subscription site the flow graph grounds with the
        ``@handles`` declarations, so subscribe-based handlers count, not
        just decorated ones.
        """
        out: dict[tuple[str, str], set[str]] = {}
        for consumer in self.flow_graph.consumers:
            if consumer.component == "<module>":
                continue
            bucket = out.setdefault((consumer.component, consumer.handler), set())
            if consumer.event is not None:
                bucket.add(consumer.event)
        for name, info in self.index.classes.items():
            for handler in info.handlers.values():
                if handler.event_type is not None:
                    out.setdefault((name, handler.name), set()).add(
                        handler.event_type
                    )
        return out

    @cached_property
    def _handler_names(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for component, method in self.handler_events:
            out.setdefault(component, set()).add(method)
        return out

    def handlers_of(self, component: str) -> set[str]:
        """Names of methods of ``component`` that run as event handlers."""
        return set(self._handler_names.get(component, ()))

    # --------------------------------------------------------------- facets

    def component_model(self, info: ClassInfo) -> "ComponentModel":
        """State facts of one component class definition (per node)."""
        cached = self._component_models.get(id(info.node))
        if cached is None:
            from .dist.model import build_component_model

            cached = build_component_model(info, self.index)
            self._component_models[id(info.node)] = cached
        return cached

    @cached_property
    def dist(self) -> "DistModel":
        from .dist.model import build_dist_model

        return build_dist_model(self)

    @cached_property
    def mem(self) -> "MemModel":
        from .mem.model import build_mem_model

        return build_mem_model(self)
