"""AST lint pass: source-level checks on ComponentDefinition subclasses.

The lint reads the shared :class:`~repro.analysis.program.Program` model
— nothing is imported or executed — and checks each scanned
``ComponentDefinition`` subclass against the rules in
:mod:`repro.analysis.rules` (A001–A005).  What it adds to the model is
the per-class :class:`ComponentClassContext`: the port attributes and
the ``subscribe``/``trigger`` call sites of one class body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .config import AnalysisConfig
from .findings import Finding
from .program import (
    COMPONENTS,
    ClassInfo,
    HandlerInfo,
    ModuleInfo,
    Program,
    ProjectIndex,
    base_name,
    self_attr,
)


@dataclass
class ComponentClassContext:
    """Everything the rules need to know about one component class."""

    info: ClassInfo
    index: ProjectIndex
    #: self attribute -> (port type name, provided?) from self.provides/requires
    ports: dict[str, tuple[str, bool]] = field(default_factory=dict)
    #: methods referenced by self.subscribe(self.m, ...) -> had event_type kwarg
    subscribe_calls: list[ast.Call] = field(default_factory=list)
    trigger_calls: list[tuple[ast.Call, ast.FunctionDef]] = field(default_factory=list)

    @property
    def module(self) -> ModuleInfo:
        return self.info.module

    def handler_methods(self) -> list[HandlerInfo]:
        """Methods that run as event handlers: @handles-decorated or subscribed."""
        subscribed = set()
        for call in self.subscribe_calls:
            method = _self_method_ref(call)
            if method is not None:
                subscribed.add(method)
        out = []
        for name, handler in self.info.handlers.items():
            if handler.event_type is not None or name in subscribed:
                out.append(handler)
        return out


def _self_method_ref(subscribe_call: ast.Call) -> Optional[str]:
    if not subscribe_call.args:
        return None
    return self_attr(subscribe_call.args[0], "self")


def _extract_context(info: ClassInfo, index: ProjectIndex) -> ComponentClassContext:
    ctx = ComponentClassContext(info, index)
    for method in info.methods.values():
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                call = node.value
                called = self_attr(call.func, "self")
                if called in ("provides", "requires") and call.args:
                    port_name = base_name(call.args[0])
                    if port_name is None:
                        continue
                    for target in node.targets:
                        attr = self_attr(target, "self")
                        if attr is not None:
                            ctx.ports[attr] = (port_name, called == "provides")
            elif isinstance(node, ast.Call):
                called = self_attr(node.func, "self")
                if called == "subscribe":
                    ctx.subscribe_calls.append(node)
                elif called == "trigger":
                    ctx.trigger_calls.append((node, method))
    return ctx


def check_component(program: Program, info: ClassInfo) -> Iterator[tuple]:
    """Run A001–A005 over one component class (driver hit shape)."""
    from . import rules

    ctx = _extract_context(info, program.index)
    path = str(info.module.path)
    for check in rules.AST_CHECKS:
        for rule_id, message, where in check(ctx):
            yield (
                rule_id,
                message,
                path,
                getattr(where, "lineno", None),
                getattr(where, "col_offset", None),
                {},
            )


CLASS_CHECKS = ((COMPONENTS, check_component),)


def lint_paths(
    paths: Iterable[Path | str],
    config: Optional[AnalysisConfig] = None,
) -> list[Finding]:
    """Run the AST lint over files/directories; returns sorted findings."""
    from .driver import analyze_paths

    return analyze_paths("lint", paths, config)
