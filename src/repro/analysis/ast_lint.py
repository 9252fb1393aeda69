"""AST lint pass: source-level checks on ComponentDefinition subclasses.

The lint reads the shared :class:`~repro.analysis.program.Program` model
— nothing is imported or executed — and checks each scanned
``ComponentDefinition`` subclass against the rules in
:mod:`repro.analysis.rules` (A001, A003, A004).  What it adds to the
model is the per-class :class:`ComponentClassContext`: the
``subscribe`` call sites of one class body.
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
    Program,
    ProjectIndex,
    self_attr,
)


@dataclass
class ComponentClassContext:
    """Everything the rules need to know about one component class."""

    info: ClassInfo
    index: ProjectIndex
    #: every ``self.subscribe(...)`` call in the class body
    subscribe_calls: list[ast.Call] = field(default_factory=list)

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
            if isinstance(node, ast.Call) and self_attr(node.func, "self") == "subscribe":
                ctx.subscribe_calls.append(node)
    return ctx


def check_component(program: Program, info: ClassInfo) -> Iterator[tuple]:
    """Run the A rules over one component class (driver hit shape)."""
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
