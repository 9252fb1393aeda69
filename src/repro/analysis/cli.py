"""Command-line front-end: ``python -m repro.analysis [PASS] <paths>``.

One parser for every static pass.  ``PASS`` is a pass filter — ``lint``
(the default when omitted), ``flow``, ``dist``, ``mem``, ``par``, or
``all`` — over one :class:`~repro.analysis.program.Program` built from
the paths: the files are scanned and indexed once however many passes
run.  Findings are reported as text or JSON, ``--sarif FILE``
additionally writes a SARIF 2.1.0 log.  Two flags belong to one pass:
``flow --dot FILE`` writes the producer/consumer graph (restricted to the
scanned files) as Graphviz text, and ``all --wiring-examples DIR`` folds
in wiring verification (W*) of example assemblies.  ``all`` is the CI and
pre-commit entry point: its JSON report buckets the findings per pass.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage
errors (no paths, a missing path, a bad config, a ``--select``/``--ignore``
value that names no rule of the passes being run).

``python -m repro.analysis race ...`` is the concurrency analysis; it
drives the simulator rather than reading source, and keeps its own CLI.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import AnalysisConfig, find_pyproject, load_config, unmatched_patterns
from .driver import (
    PASSES,
    WIRING_PREFIX,
    merged_findings,
    run,
    to_aggregate_json,
)
from .findings import RULES, to_json
from .program import Program

_DESCRIPTIONS = {
    "lint": (
        "Kompics architecture linter: static analysis of component "
        "definitions (rules A*), plus the wiring verifier (W*) and "
        "runtime sanitizer (S*) available via the library API."
    ),
    "flow": (
        "Whole-program static event-flow analysis over a program-wide "
        "producer/consumer graph (rules F002 dead handlers, F005 stale "
        "port contracts)."
    ),
    "dist": (
        "Whole-program distribution-readiness analysis: can every event "
        "and component survive a process boundary (rules D001 payload "
        "serializability, D004 non-transferable state, D006 codec "
        "coverage)."
    ),
    "mem": (
        "Whole-program memory-footprint analysis toward the "
        "million-peer simulation (rules M001 missing __slots__, M002 "
        "unbounded per-peer collections, M003 retained events, M006 "
        "heavyweight event defaults)."
    ),
    "par": (
        "Whole-program shard-safety analysis toward multi-process "
        "scale-out (rules P005 handler-held synchronization primitives, "
        "P006 unpinnable components)."
    ),
    "all": (
        "Run every static analysis pass (lint A*, flow F*, dist D*, "
        "mem M*, par P*) over the tree with one merged report and one "
        "exit code; --wiring-examples DIR folds in wiring verification "
        "(W*) of example assemblies."
    ),
}


def _build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=" ".join(filter(None, ("python -m repro.analysis", command))),
        description=_DESCRIPTIONS[command or "lint"],
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (directories are walked recursively)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--sarif",
        type=str,
        default=None,
        metavar="FILE",
        help="additionally write a SARIF 2.1.0 log ('-' for stdout)",
    )
    if command == "flow":
        parser.add_argument(
            "--dot",
            type=str,
            default=None,
            metavar="FILE",
            help="write the event-flow graph as Graphviz DOT ('-' for stdout)",
        )
    if command == "all":
        parser.add_argument(
            "--wiring-examples",
            type=Path,
            default=None,
            metavar="DIR",
            help="assemble every WIRING_ROOT script in DIR and verify wiring",
        )
    parser.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule prefixes to enable (e.g. A001,F)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=None,
        metavar="RULES",
        help="comma-separated rule prefixes to disable",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="PYPROJECT",
        help="pyproject.toml to read [tool.repro.analysis] from "
        "(default: nearest one above the first path)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rules of the selected passes (the whole catalogue "
        "when no pass is named) and exit",
    )
    return parser


def _split_csv(values: Optional[Sequence[str]]) -> tuple[str, ...]:
    if not values:
        return ()
    out: list[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return tuple(out)


def _usage_error(parser: argparse.ArgumentParser, message: str) -> int:
    parser.print_usage(sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "race":
        # Concurrency analysis lives in its own subcommand so the static
        # passes (and their importers) never pay for the simulation stack.
        from .race.cli import main as race_main

        return race_main(argv[1:])
    command = argv.pop(0) if argv and argv[0] in _DESCRIPTIONS else None
    parser = _build_parser(command)
    args = parser.parse_args(argv)
    passes = tuple(PASSES) if command == "all" else (command or "lint",)
    wiring_examples = getattr(args, "wiring_examples", None)

    #: rule ids the passes being run can report
    prefixes = {PASSES[name].prefix for name in passes}
    if wiring_examples is not None:
        prefixes.add(WIRING_PREFIX)
    reportable = [r for r in sorted(RULES) if r[0] in prefixes]

    if args.list_rules:
        for rule_id in sorted(RULES) if command is None else reportable:
            print(f"{rule_id}  {RULES[rule_id].summary}")
        return 0

    if not args.paths:
        return _usage_error(parser, "no paths given (or use --list-rules)")
    for path in args.paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    if wiring_examples is not None and not wiring_examples.is_dir():
        print(f"error: not a directory: {wiring_examples}", file=sys.stderr)
        return 2

    pyproject = args.config
    if pyproject is None:
        pyproject = find_pyproject(args.paths[0])
    try:
        config = load_config(pyproject) if pyproject else AnalysisConfig()
    except Exception as exc:  # noqa: BLE001 - report config errors as usage errors
        print(f"error: bad config {pyproject}: {exc}", file=sys.stderr)
        return 2
    for flag, values in (("--select", args.select), ("--ignore", args.ignore)):
        patterns = _split_csv(values)
        for pattern in unmatched_patterns(patterns):
            return _usage_error(
                parser, f"{flag} names unknown rule or prefix {pattern!r}"
            )
        for pattern in unmatched_patterns(patterns, reportable):
            return _usage_error(
                parser,
                f"{flag} {pattern!r} names no rule of the pass(es) being run "
                f"({', '.join(passes)})",
            )
    config = config.merged(
        select=_split_csv(args.select) if args.select else None,
        ignore=_split_csv(args.ignore) if args.ignore else None,
    )

    program = Program.load(args.paths, config)
    per_pass = run(program, passes, config, wiring_examples)
    findings = merged_findings(per_pass)

    if args.sarif is not None:
        from .sarif import write_sarif

        write_sarif(findings, args.sarif)
    dot_file = getattr(args, "dot", None)
    if dot_file is not None:
        from .flow.dot import to_dot

        dot = to_dot(program.flow_graph, files=set(program.scanned), title="event-flow")
        if dot_file == "-":
            sys.stdout.write(dot)
        else:
            Path(dot_file).write_text(dot, encoding="utf-8")

    if command == "all":
        if args.format == "json":
            print(to_aggregate_json(per_pass))
        else:
            for finding in findings:
                print(finding.format())
            totals = ", ".join(
                f"{name}: {len(found)}" for name, found in per_pass.items()
            )
            print(f"{len(findings)} finding(s) ({totals})")
    elif args.format == "json":
        print(to_json(findings))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"\n{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
