"""The D001, D004 and D006 checks over the program model.

Each check yields ``(rule, message, file, line, col, extra)`` hits; the
driver (:mod:`..driver`) walks the classes, applies rule selection and
``# repro: noqa[D...]`` suppression, and drops hits outside the scanned
files — the same contract as every other pass.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Optional

from ..config import AnalysisConfig
from ..program import COMPONENTS, EVENTS, ClassInfo, Hit, Program
from .model import EventVerdict, _own_fields

_NETWORK_ROOT = "Network"


# ------------------------------------------------------------------- D001


def check_events(program: Program, info: ClassInfo) -> Iterator[Hit]:
    for fld in _own_fields(info, program.index):
        if fld.reason is None:
            continue
        yield (
            "D001",
            f"field {fld.name!r} of event {info.name} is annotated "
            f"{fld.annotation!r}: {fld.reason}; this payload cannot cross "
            "a process boundary",
            str(info.module.path),
            fld.line,
            None,
            {"event": info.name, "field": fld.name},
        )


# ------------------------------------------------------------------- D004


def check_component_state(program: Program, info: ClassInfo) -> Iterator[Hit]:
    comp = program.component_model(info)
    if comp.has_state_hooks or not comp.resource_attrs:
        return
    for attr, resource, line in comp.resource_attrs:
        yield (
            "D004",
            f"self.{attr} holds {resource} but {info.name} overrides "
            "neither dump_state nor load_state; section-2.6 state transfer "
            "cannot migrate this component across processes",
            str(info.module.path),
            line,
            None,
            {"component": info.name, "attr": attr, "resource": resource},
        )


# ------------------------------------------------------------------- D006


def check_codec_coverage(program: Program) -> Iterator[Hit]:
    model, scanned = program.dist, program.scanned
    crossing: dict[str, list] = {}
    for producer in program.flow_graph.producers:
        if producer.event is None:
            continue
        if not model.index.descends_from(producer.port_type, _NETWORK_ROOT):
            continue
        crossing.setdefault(producer.event, []).append(producer)
    for event in sorted(crossing):
        if event in model.registered:
            continue
        info = model.index.classes.get(event)
        sites = crossing[event]
        if info is not None and str(info.module.path) in scanned:
            path = str(info.module.path)
            line: int = info.node.lineno
            col: Optional[int] = info.node.col_offset
        else:
            anchored = [p for p in sites if p.file in scanned]
            if not anchored:
                continue  # event and every trigger live in framework context
            first = min(anchored, key=lambda p: (p.file, p.line))
            path = first.file
            line, col = first.line, first.col
        yield (
            "D006",
            f"{event} crosses the Network port ({len(sites)} trigger "
            "site(s)) with no compact-codec registration; register it with "
            "@register_compact or justify the pickle fallback",
            path,
            line,
            col,
            {"event": event, "sites": len(sites)},
        )


# --------------------------------------------------------------- registry

CLASS_CHECKS = (
    (EVENTS, check_events),               # D001
    (COMPONENTS, check_component_state),  # D004
)
PROGRAM_CHECKS = (check_codec_coverage,)  # D006


def classify_events(
    paths: Iterable[Path | str], config: Optional[AnalysisConfig] = None
) -> dict[str, EventVerdict]:
    """D001 verdict per indexed event type, pre-suppression.

    This is the static half of the round-trip oracle: every event marked
    ``wire_safe`` here must pickle round-trip byte-stably, and every event
    that does not must carry at least one reason.
    """
    model = Program.load(paths, config).dist
    return {name: model.verdict(name) for name in model.event_names()}
