"""The one driver of the static passes: lint, flow, dist, mem, par.

A pass is a row of :data:`PASSES`: *class checks* ``(kinds, check)`` run
as ``check(program, info)`` for every scanned class of one of those
kinds (``component`` / ``event`` / ``port``, roots excluded), then
*program checks* run once as ``check(program)``.  Every check yields
``(rule, message, file, line, col, extra)`` hits; :func:`run` performs
the class walk and turns hits into sorted
:class:`~repro.analysis.findings.Finding` records, dropping hits outside
the scanned files (the framework is context, not the subject), rules the
config disables, and lines carrying ``# repro: noqa[...]``.

``python -m repro.analysis all`` additionally folds in wiring
verification (W*) of example assemblies: every script in
``--wiring-examples DIR`` that declares a module-level ``WIRING_ROOT``
component class is built under a ManualScheduler, verified, and never
started.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import ast_lint
from .config import AnalysisConfig, is_suppressed
from .dist import checks as dist_checks
from .findings import Finding
from .flow import graph as flow_graph
from .mem import checks as mem_checks
from .par import checks as par_checks
from .program import ClassInfo, Hit, Program

ClassCheck = Callable[[Program, ClassInfo], Iterator[Hit]]
ProgramCheck = Callable[[Program], Iterator[Hit]]


@dataclass(frozen=True)
class Pass:
    """One rule family: its id prefix and its registered checks."""

    prefix: str
    class_checks: tuple[tuple[frozenset[str], ClassCheck], ...] = ()
    program_checks: tuple[ProgramCheck, ...] = ()


#: Pass name -> family, in report order.
PASSES: dict[str, Pass] = {
    "lint": Pass("A", ast_lint.CLASS_CHECKS),
    "flow": Pass("F", (), flow_graph.PROGRAM_CHECKS),
    "dist": Pass("D", dist_checks.CLASS_CHECKS, dist_checks.PROGRAM_CHECKS),
    "mem": Pass("M", mem_checks.CLASS_CHECKS),
    "par": Pass("P", par_checks.CLASS_CHECKS),
}

#: Rule-id prefix of the wiring findings ``--wiring-examples`` folds in.
WIRING_PREFIX = "W"

#: Module-level attribute an example script sets to its root component
#: class to opt into aggregate wiring verification.
WIRING_ROOT_ATTR = "WIRING_ROOT"


def _hits(program: Program, spec: Pass) -> Iterator[Hit]:
    for info in program.classes:
        kinds = program.kinds(info.name)
        for wanted, check in spec.class_checks:
            if wanted & kinds:
                yield from check(program, info)
    for check in spec.program_checks:
        yield from check(program)


def run(
    program: Program,
    passes: Sequence[str],
    config: AnalysisConfig,
    wiring_examples: Optional[Path] = None,
) -> dict[str, list[Finding]]:
    """Run the named passes; returns sorted findings per pass name."""
    per_pass: dict[str, list[Finding]] = {}
    for name in passes:
        findings: list[Finding] = []
        for rule_id, message, file, line, col, extra in _hits(program, PASSES[name]):
            module = program.scanned.get(file)
            if module is None:
                continue  # framework context: report only on scanned files
            if not config.rule_enabled(rule_id):
                continue
            if line is not None and is_suppressed(rule_id, module.line(line)):
                continue
            findings.append(
                Finding(
                    rule=rule_id,
                    message=message,
                    file=file,
                    line=line,
                    col=col,
                    extra=extra,
                )
            )
        findings.sort(key=lambda f: (f.file or "", f.line or 0, f.rule))
        per_pass[name] = findings
    if wiring_examples is not None:
        per_pass["wiring"] = verify_example_assemblies(wiring_examples, config)
    return per_pass


def analyze_paths(
    name: str,
    paths: Iterable[Path | str],
    config: Optional[AnalysisConfig] = None,
) -> list[Finding]:
    """One pass over files/directories (the per-family library entry)."""
    config = config or AnalysisConfig()
    return run(Program.load(paths, config), (name,), config)[name]


def run_all(
    paths: Iterable[Path | str],
    config: Optional[AnalysisConfig] = None,
    wiring_examples: Optional[Path] = None,
) -> dict[str, list[Finding]]:
    """Run every pass; returns findings per pass name (insertion order)."""
    config = config or AnalysisConfig()
    return run(Program.load(paths, config), tuple(PASSES), config, wiring_examples)


def merged_findings(per_pass: dict[str, list[Finding]]) -> list[Finding]:
    merged = [f for findings in per_pass.values() for f in findings]
    merged.sort(key=lambda f: (f.file or "", f.line or 0, f.rule, f.obj or ""))
    return merged


def to_aggregate_json(per_pass: dict[str, list[Finding]]) -> str:
    merged = merged_findings(per_pass)
    counts: dict[str, int] = {}
    for finding in merged:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return json.dumps(
        {
            "version": 1,
            "passes": {
                name: {
                    "findings": [f.to_dict() for f in findings],
                    "total": len(findings),
                }
                for name, findings in per_pass.items()
            },
            "counts": counts,
            "total": len(merged),
        },
        indent=2,
        sort_keys=True,
    )


# ------------------------------------------------------- example assemblies


def load_wiring_root(path: Path):
    """Import one example script and return its ``WIRING_ROOT`` class.

    Returns None when the script does not declare one.  The module is
    executed (examples only define classes at import time) and removed
    from ``sys.modules`` again so repeated loads stay independent.
    """
    spec = importlib.util.spec_from_file_location(
        f"repro_wiring_{path.stem}", path
    )
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return getattr(module, WIRING_ROOT_ATTR, None)


def verify_example_assemblies(
    directory: Path, config: Optional[AnalysisConfig] = None
) -> list[Finding]:
    """Assemble and wiring-verify every ``WIRING_ROOT`` example script."""
    from repro import ComponentSystem, ManualScheduler
    from .wiring import verify_system

    config = config or AnalysisConfig()
    findings: list[Finding] = []
    for path in sorted(directory.glob("*.py")):
        if config.path_excluded(path):
            continue
        # Example components may print during assembly or teardown; keep
        # stdout clean for the JSON/SARIF report streams.
        with contextlib.redirect_stdout(sys.stderr):
            root_cls = load_wiring_root(path)
            if root_cls is None:
                continue
            system = ComponentSystem(scheduler=ManualScheduler(), seed=7)
            try:
                system.bootstrap(root_cls)
                verified = verify_system(system)
            finally:
                system.shutdown()
        for finding in verified:
            if not config.rule_enabled(finding.rule):
                continue
            findings.append(
                Finding(
                    rule=finding.rule,
                    message=f"[{path.name}] {finding.message}",
                    obj=finding.obj,
                    extra=finding.extra,
                )
            )
    return findings
