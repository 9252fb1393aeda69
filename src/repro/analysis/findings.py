"""Findings: the common currency of all three analysis passes.

Every pass (AST lint, wiring verifier, runtime sanitizer) reports
:class:`Finding` records tagged with a stable rule id.  Rule ids are
grouped by pass:

- ``A0xx`` — AST lint rules (source-level, per file/line)
- ``W0xx`` — wiring verifier rules (structural, per component/port)
- ``S0xx`` — runtime sanitizer violations (raised as exceptions, but
  catalogued here so docs and suppression share one namespace)
- ``R0xx`` — concurrency analysis: happens-before races, determinism
  violations, schedule-dependent failures (:mod:`repro.analysis.race`)
- ``F0xx`` — whole-program event-flow analysis: producer/consumer graph
  over (port type, direction, event type) (:mod:`repro.analysis.flow`)
- ``C0xx`` — consistency checker results surfaced as findings
  (:mod:`repro.consistency.checker`)
- ``D0xx`` — distribution-readiness analysis: can every event and
  component survive a process boundary? (:mod:`repro.analysis.dist`)
- ``M0xx`` — memory-footprint analysis: slot coverage, unbounded
  collections, event retention, per-event defaults
  (:mod:`repro.analysis.mem`)
- ``P0xx`` — shard-safety analysis: handler-held locks and components
  that cannot migrate between worker processes (:mod:`repro.analysis.par`)

Retired ids (A002, A005, D002, D003, D005, F001, F003, F004, M004,
M005, P001–P004) are never reused; ``docs/analysis.md`` keeps the census
that retired them.

A finding is suppressed at the source line with a trailing
``# repro: noqa[A001]`` comment (see :mod:`repro.analysis.config` for
rule selection via ``pyproject.toml``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Rule:
    """A registered analysis rule."""

    id: str
    name: str
    summary: str
    pass_: str  # "ast" | "wiring" | "sanitizer" | "race" | "flow" | "consistency"


#: The rule catalogue.  Keep ids stable: they appear in suppression
#: comments and pyproject select/ignore tables.
RULES: dict[str, Rule] = {}


def register_rule(id: str, name: str, summary: str, pass_: str) -> Rule:
    rule = Rule(id, name, summary, pass_)
    if id in RULES:
        raise ValueError(f"duplicate rule id {id}")
    RULES[id] = rule
    return rule


register_rule(
    "A001", "event-mutation",
    "handler mutates an attribute of the event it received (events are "
    "immutable shared values; fan-out aliases one object to many handlers)",
    "ast",
)
register_rule(
    "A003", "foreign-state-access",
    "handler reaches into another component's state via .definition/.core "
    "(components share nothing; communicate through events)",
    "ast",
)
register_rule(
    "A004", "subscribe-without-handles",
    "self.subscribe() of a method that has no @handles declaration and no "
    "explicit event_type= (would raise SubscriptionError at runtime)",
    "ast",
)
register_rule(
    "W001", "unconnected-required-port",
    "a required port has no channel attached to its outside face: events "
    "triggered on it vanish and its indications can never arrive",
    "wiring",
)
register_rule(
    "W002", "dead-subscription",
    "a subscription cannot be reached from any trigger site through the "
    "assembled channel graph (dead handler)",
    "wiring",
)
register_rule(
    "W003", "duplicate-subscription",
    "the same handler is subscribed twice to one port face for the same "
    "event type: every matching event executes it twice",
    "wiring",
)
register_rule(
    "W004", "channel-anomaly",
    "channel graph anomaly: duplicate parallel channel, held channel, or "
    "an unplugged channel end at verification time",
    "wiring",
)
register_rule(
    "S001", "event-mutated-after-delivery",
    "an event object was mutated after being triggered (sanitizer mode; "
    "raises EventMutationError at the mutation site)",
    "sanitizer",
)
register_rule(
    "S002", "handler-reentrancy",
    "a component's handlers ran re-entrantly or on two threads at once "
    "(sanitizer mode; raises ReentrancyError)",
    "sanitizer",
)
register_rule(
    "R001", "unordered-conflicting-access",
    "two handler executions access the same non-event object, at least one "
    "writes, and no happens-before edge (trigger/channel/lifecycle/state "
    "transfer) orders them — a data race on the multi-core runtime",
    "race",
)
register_rule(
    "R002", "nondeterministic-execution",
    "two same-seed simulation runs diverge beyond happens-before "
    "commutativity (unseeded randomness, iteration order, or a wall-clock "
    "read leaking into virtual time)",
    "race",
)
register_rule(
    "R003", "schedule-dependent-failure",
    "a legal reordering of same-timestamp events or ready components makes "
    "the scenario fail while the FIFO baseline passes (found by the "
    "schedule explorer; shrunk and replayable)",
    "race",
)
register_rule(
    "F002", "dead-handler",
    "a subscription for which no trigger site anywhere in the program "
    "produces a matching event on that port type and direction",
    "flow",
)
register_rule(
    "F005", "stale-contract",
    "an event type declared in a port's positive/negative set that nothing "
    "in the program triggers or handles (dead vocabulary)",
    "flow",
)
register_rule(
    "C001", "non-linearizable-history",
    "the consistency checker found no legal sequential order of the "
    "recorded register operations that respects real time",
    "consistency",
)
register_rule(
    "D001", "unserializable-event-payload",
    "an event field is annotated with a type that cannot cross a process "
    "boundary (component/port/channel references, locks, threads, sockets, "
    "files, callables)",
    "dist",
)
register_rule(
    "D004", "non-transferable-state",
    "component state holds an OS resource (thread, lock, socket, server, "
    "file) and the class overrides neither dump_state nor load_state, so "
    "section-2.6 state transfer cannot migrate it across processes",
    "dist",
)
register_rule(
    "D006", "codec-coverage",
    "a protocol event crosses a Network port with no compact-codec "
    "registration, so it rides the pickle fallback at wire speed (register "
    "with @register_compact or justify the fallback)",
    "dist",
)
register_rule(
    "M001", "missing-slots",
    "an Event/Component/Port subclass whose entire base chain is already "
    "slot-complete carries no __slots__ (dataclasses: slots=True), so every "
    "instance pays a full __dict__ at million-peer scale",
    "mem",
)
register_rule(
    "M002", "unbounded-growth",
    "a component attribute (set/dict/list) grows inside handlers with no "
    "discard/del/clear/pop or wholesale-replacement site anywhere in the "
    "class — per-peer state grows without bound over the run",
    "mem",
)
register_rule(
    "M003", "retained-event",
    "a handler stores the delivered event object (or one of its mutable "
    "payload fields) into self.*, keeping the payload graph alive and "
    "aliasing it across deliveries; copy the fields out instead",
    "mem",
)
register_rule(
    "M006", "heavyweight-default",
    "an event field uses a mutable default_factory (dict/list/set), "
    "allocating a fresh container per instance where an empty-tuple "
    "sentinel (or a required field) suffices",
    "mem",
)
register_rule(
    "P005", "handler-acquires-sync-primitive",
    "a handler acquires a synchronization primitive (threading.Lock/"
    "Condition/Event.wait, queue.Queue.get, Thread.join); a lock-shaped "
    "stall can deadlock a shard's worker pool",
    "par",
)
register_rule(
    "P006", "unpinnable-component",
    "a component holds mutable state but overrides neither dump_state nor "
    "load_state, so section-2.6 state transfer cannot migrate it to "
    "rebalance shards",
    "par",
)


@dataclass(frozen=True)
class Finding:
    """One reported violation."""

    rule: str
    message: str
    file: Optional[str] = None
    line: Optional[int] = None
    col: Optional[int] = None
    obj: Optional[str] = None  # component/port path for wiring findings
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def pass_(self) -> str:
        return RULES[self.rule].pass_

    def location(self) -> str:
        if self.file is not None:
            where = self.file
            if self.line is not None:
                where += f":{self.line}"
                if self.col is not None:
                    where += f":{self.col}"
            return where
        return self.obj or "<unknown>"

    def format(self) -> str:
        return f"{self.location()}: {self.rule} [{RULES[self.rule].name}] {self.message}"

    def to_dict(self) -> dict:
        data = {
            "rule": self.rule,
            "name": RULES[self.rule].name,
            "message": self.message,
        }
        for key in ("file", "line", "col", "obj"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.extra:
            data["extra"] = self.extra
        return data


def to_json(findings: list[Finding]) -> str:
    """Machine-readable report (stable shape; consumed by CI tooling)."""
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return json.dumps(
        {
            "version": 1,
            "findings": [f.to_dict() for f in findings],
            "counts": counts,
            "total": len(findings),
        },
        indent=2,
        sort_keys=True,
    )
