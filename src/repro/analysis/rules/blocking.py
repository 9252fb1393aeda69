"""A002: blocking calls inside event handlers.

Handlers execute on scheduler workers; a handler that sleeps or performs
synchronous I/O stalls a whole worker (paper section 3: handlers must be
non-blocking; long-running work belongs in dedicated components that
bridge to threads, like TcpNetwork and ThreadTimer do outside their
handlers).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..program import dotted_name

RULE = "A002"

#: Dotted call targets that block (resolved through the module's imports).
BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "socket.socket",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.put",
        "requests.request",
        "select.select",
        "os.system",
    }
)

#: Bare builtins that block.
BLOCKING_BARE = frozenset({"open", "input"})

#: File-I/O methods chained directly onto a ``pathlib.Path(...)``
#: construction — ``Path(p).open()`` reaches the same syscall as the bare
#: ``open(p)`` but hides behind a Call receiver the dotted resolver
#: cannot name.
BLOCKING_PATH_METHODS = frozenset(
    {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
)

#: Bound-method names that block on a socket-like endpoint.  The receiver
#: of ``conn.recv(...)`` is a runtime object no import table can resolve,
#: so these are matched by name; the set is kept to names distinctive to
#: blocking endpoints (``connect`` is deliberately absent — too many
#: component APIs use it for wiring).
BLOCKING_BOUND_METHODS = frozenset({"accept", "recv", "recvfrom", "recv_into"})


def check(ctx) -> Iterator[tuple[str, str, ast.AST]]:
    imports = ctx.module.imports
    for handler in ctx.handler_methods():
        for node in ast.walk(handler.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is not None:
                resolved = _resolve(dotted, imports)
                if resolved in BLOCKING_DOTTED or (
                    "." not in dotted and dotted in BLOCKING_BARE
                ):
                    yield (
                        RULE,
                        f"handler {handler.name}() calls blocking "
                        f"{resolved or dotted}(): handlers must not block "
                        f"a scheduler worker",
                        node,
                    )
                    continue
            if not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            receiver = node.func.value
            if (
                method in BLOCKING_PATH_METHODS
                and isinstance(receiver, ast.Call)
                and _resolve(dotted_name(receiver.func) or "", imports)
                == "pathlib.Path"
            ):
                yield (
                    RULE,
                    f"handler {handler.name}() calls blocking "
                    f"pathlib.Path(...).{method}(): handlers must not "
                    f"block a scheduler worker",
                    node,
                )
            elif method in BLOCKING_BOUND_METHODS:
                yield (
                    RULE,
                    f"handler {handler.name}() calls .{method}(), a "
                    f"blocking socket-style receive: handlers must not "
                    f"block a scheduler worker",
                    node,
                )


def _resolve(dotted: str, imports: dict[str, str]) -> Optional[str]:
    """Map a call like ``sleep(...)`` or ``t.sleep(...)`` through imports."""
    head, _, rest = dotted.partition(".")
    target = imports.get(head)
    if target is None:
        return dotted if dotted in BLOCKING_DOTTED else None
    return f"{target}.{rest}" if rest else target
