"""Architecture analysis for the component model.

Every rule states one discipline (paper section 2): components interact
only through ports, and events are immutable values.  Three kinds of
checker enforce it.

**Static passes over one program model.**  :mod:`.program` scans the
given paths once into a :class:`~repro.analysis.program.Program` — parsed
modules, a name-level class index, and lazily cached facets (flow graph,
handler map, dist/mem models).  :mod:`.driver` runs the rule
families over it — registered check functions, one class walk, one
``select``/``ignore``/``# repro: noqa`` filter, one sort:

1. **AST lint** (:mod:`.ast_lint` + :mod:`.rules`, ``A001``, ``A003``,
   ``A004``) — handler code that breaks the model's contract: event
   mutation, cross-component state access, untypeable subscriptions.
2. **Event flow** (:mod:`.flow`, ``F002``, ``F005``) — whole-program join
   of trigger sites with subscriptions per (port type, direction, event
   type): dead handlers and stale contract vocabulary.
3. **Distribution readiness** (:mod:`.dist`, ``D001``, ``D004``,
   ``D006``) — payload serializability, state transferability and
   compact-codec coverage across a process boundary.
4. **Memory footprint** (:mod:`.mem`, ``M001``–``M003``, ``M006``) —
   slot coverage over the event/component hierarchy, unbounded per-peer
   collections, retained events, heavyweight event defaults.
5. **Shard safety** (:mod:`.par`, ``P005``, ``P006``) — handler-held
   locks and components that cannot migrate between worker processes.

**Checks on a live system.**

6. **Wiring verifier** (:mod:`.wiring`, ``W001``–``W004``) — walks an
   assembled (not started) component tree and reports disconnected
   required ports, subscriptions no trigger site can reach, duplicate
   subscriptions, and channel anomalies.
7. **Runtime sanitizer** (:mod:`.sanitizer`, ``S001``–``S002``) — opt-in
   dynamic checks that raise at the exact moment a delivered event is
   mutated or a component's handlers run re-entrantly.
8. **Concurrency analysis** (:mod:`.race`, ``R001``–``R003``) —
   happens-before race detection, determinism checking, and schedule
   exploration over the simulation runtime (loaded lazily: it pulls in
   the simulation stack).

Command line (:mod:`.cli`, one parser): ``python -m repro.analysis
[lint|flow|dist|mem|par|all] src/repro examples`` — the pass word is a
filter over the same program model, ``lint`` when omitted, ``all`` for
every static pass with one merged report and exit code — and
``python -m repro.analysis race ...`` for the concurrency analysis.
``--sarif FILE`` (:mod:`.sarif`) writes a SARIF 2.1.0 log.  See
``docs/analysis.md`` for the full rule catalogue and suppression syntax
(``# repro: noqa[A001]``, ``[tool.repro.analysis]``).
"""

from .ast_lint import lint_paths
from .config import AnalysisConfig, load_config
from .findings import RULES, Finding, Rule, to_json
from .sanitizer import activate_from_env, disable, enable, is_enabled, sanitized
from .sarif import to_sarif, write_sarif
from .wiring import verify_system, verify_tree

__all__ = [
    "AnalysisConfig",
    "Finding",
    "RULES",
    "Rule",
    "activate_from_env",
    "disable",
    "enable",
    "is_enabled",
    "lint_paths",
    "load_config",
    "race",
    "sanitized",
    "to_json",
    "to_sarif",
    "verify_system",
    "verify_tree",
    "write_sarif",
]


def __getattr__(name: str):
    # PEP 562: the race subpackage imports the simulation runtime, which
    # plain lint/sanitizer users should not pay for.
    if name == "race":
        import importlib

        return importlib.import_module(".race", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
