"""Whole-program static event-flow analysis (rules F002, F005).

Joins every component's port declarations, handler subscriptions and
``trigger(...)`` call sites with the ``PortType.positive``/``negative``
contract sets into a program-wide producer/consumer graph over
``(port type, direction, event type)``, then checks the graph for dead
handlers and stale contract vocabulary.

Like the AST lint, the pass is purely syntactic and name-based: nothing
is imported or executed, and any site it cannot ground (a port held in a
variable it cannot trace, an event built by a helper) degrades to a
*wildcard* record that satisfies matches but never raises findings.
"""

from pathlib import Path
from typing import Iterable, Optional

from ..config import AnalysisConfig
from ..findings import Finding
from .extract import Consumer, Face, FlowExtraction, Producer, PortDecl
from .graph import FlowGraph
from .dot import to_dot

__all__ = [
    "Consumer",
    "Face",
    "FlowExtraction",
    "FlowGraph",
    "PortDecl",
    "Producer",
    "analyze_paths",
    "to_dot",
]


def analyze_paths(
    paths: Iterable[Path | str], config: Optional[AnalysisConfig] = None
) -> list[Finding]:
    """Run the flow pass over files/directories; returns sorted findings."""
    from ..driver import analyze_paths as analyze

    return analyze("flow", paths, config)
