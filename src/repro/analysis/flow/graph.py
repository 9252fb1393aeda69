"""Join extracted records into a program-wide flow graph and check it.

The graph always covers the *whole program*: the scanned paths plus the
installed ``repro`` package (so running over ``examples/`` alone still
sees the framework's Timer and Network producers).  Findings, however,
are only reported for files under the scanned paths — the framework is
context, not the subject (the driver drops hits anchored elsewhere).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..program import Program, ProjectIndex
from .extract import (
    NEGATIVE,
    POSITIVE,
    Consumer,
    FlowExtraction,
    PortDecl,
    Producer,
    _Extractor,
)

#: Port types whose traffic the runtime manages itself (lifecycle plane);
#: their contracts are exercised by the kernel, not by component code.
_CONTROL_PORTS = frozenset({"ControlPort"})

_DIRECTION_WORD = {POSITIVE: "positive (indication)", NEGATIVE: "negative (request)"}


@dataclass
class FlowGraph:
    """The joined producer/consumer view plus the index it was built from."""

    index: ProjectIndex
    producers: list[Producer] = field(default_factory=list)
    consumers: list[Consumer] = field(default_factory=list)
    port_decls: list[PortDecl] = field(default_factory=list)
    _producers_by_key: dict[tuple[str, str], list[Producer]] = field(
        default_factory=dict
    )
    _consumers_by_key: dict[tuple[str, str], list[Consumer]] = field(
        default_factory=dict
    )

    @classmethod
    def from_extraction(
        cls, index: ProjectIndex, extraction: FlowExtraction
    ) -> "FlowGraph":
        graph = cls(
            index,
            extraction.producers,
            extraction.consumers,
            extraction.port_decls,
        )
        for producer in graph.producers:
            key = (producer.port_type, producer.direction)
            graph._producers_by_key.setdefault(key, []).append(producer)
        for consumer in graph.consumers:
            key = (consumer.port_type, consumer.direction)
            graph._consumers_by_key.setdefault(key, []).append(consumer)
        return graph

    # -------------------------------------------------------------- queries

    def _related(self, a: Optional[str], b: Optional[str]) -> bool:
        """Wildcards match everything; otherwise reflexive subtype relation."""
        if a is None or b is None:
            return True
        return self.index.events_related(a, b)

    def producers_for(
        self, port_type: str, direction: str, event: Optional[str]
    ) -> list[Producer]:
        return [
            p
            for p in self._producers_by_key.get((port_type, direction), ())
            if self._related(p.event, event)
        ]

    def consumers_for(
        self, port_type: str, direction: str, event: Optional[str]
    ) -> list[Consumer]:
        return [
            c
            for c in self._consumers_by_key.get((port_type, direction), ())
            if self._related(c.event, event)
        ]

    # --------------------------------------------------------------- checks

    def check(self) -> Iterator[tuple[str, str, str, int, Optional[int], dict]]:
        """Yield ``(rule, message, file, line, col, extra)`` for every hit."""
        yield from self._check_f002()
        yield from self._check_f005()

    def _check_f002(self) -> Iterator:
        for consumer in self.consumers:
            if consumer.event is None:
                continue
            if self.producers_for(
                consumer.port_type, consumer.direction, consumer.event
            ):
                continue
            yield (
                "F002",
                f"dead handler: {consumer.component}.{consumer.handler} awaits "
                f"{consumer.event} on {consumer.port_type}, but nothing in the "
                f"program triggers it in the "
                f"{_DIRECTION_WORD[consumer.direction]} direction",
                consumer.file,
                consumer.line,
                consumer.col,
                {"port": consumer.port_type, "event": consumer.event},
            )

    def _check_f005(self) -> Iterator:
        for decl in self.port_decls:
            if decl.port_type in _CONTROL_PORTS:
                continue
            if not self.index.is_event(decl.event):
                continue
            if self.producers_for(decl.port_type, decl.direction, decl.event):
                continue
            if self.consumers_for(decl.port_type, decl.direction, decl.event):
                continue
            yield (
                "F005",
                f"stale contract: {decl.port_type} declares {decl.event} in its "
                f"{_DIRECTION_WORD[decl.direction]} set, but nothing in the "
                f"program triggers or handles it",
                decl.file,
                decl.line,
                None,
                {"port": decl.port_type, "event": decl.event},
            )


# ------------------------------------------------------------------- driver


def build_flow_graph(program: Program) -> FlowGraph:
    """Extract every module of the program (scanned, then framework) and join."""
    extractor = _Extractor(program.index)
    extraction = FlowExtraction()
    for module in program.all_modules:
        extractor.extract_module(module, extraction)
    return FlowGraph.from_extraction(program.index, extraction)


def check_flow(program: Program) -> Iterator:
    """F002 and F005 over the program's flow graph."""
    return program.flow_graph.check()


PROGRAM_CHECKS = (check_flow,)
