"""AST lint rules (A001, A003, A004).

Each rule module exposes ``check(ctx) -> Iterator[(rule_id, message, node)]``
where ``ctx`` is a
:class:`~repro.analysis.ast_lint.ComponentClassContext`.  Rules never
import or execute user code; they reason over the syntax tree plus the
name-level :class:`~repro.analysis.program.ProjectIndex` and stay silent
whenever a name cannot be grounded in the index.
"""

from __future__ import annotations

from . import isolation, mutation, subscriptions

AST_CHECKS = (
    mutation.check,        # A001 event-mutation
    isolation.check,       # A003 foreign-state-access
    subscriptions.check,   # A004 subscribe-without-handles
)

__all__ = ["AST_CHECKS"]
