"""Shard-safety analysis (rules ``P001``–``P006``).

Multi-process scale-out (ROADMAP item 1) pins root subtrees of a
``ComponentSystem`` to worker processes.  The paper's encapsulation
discipline — components interact only through ports — is exactly what
makes a subtree movable, so this pass checks the discipline holds where
it matters: every single-address-space assumption in handler code is a
latent shard bug.  The runtime oracle is :mod:`repro.runtime.shard`
(a multiprocessing harness routing cross-shard triggers over pipes with
the compact codec), differential-tested in ``tests/runtime/test_shard.py``:

- **P001** process-divergent state: handler code reads or writes
  module-level or class-level mutable state.  Each worker process gets
  its own copy, so the values silently diverge per shard.
- **P002** cross-component reach-through: handler code calls methods or
  reads attributes on a held reference to *another* component instance,
  bypassing ports (D005 covers refs inside payloads; this covers direct
  use; A003 covers the ``.definition``/``.core`` escape hatches).
- **P003** shard-cut codec gap: the flow graph joined against the
  ``self.create`` containment hierarchy and the dist pass's picklability
  verdicts — an event edge whose producer and consumer share no
  composite subtree crosses a candidate shard boundary (root-subtree
  cut), so its event type must be wire-safe.
- **P004** identity affinity: ``id()`` or ``is``/``is not`` on runtime
  values used as keys or guards in handler code.  Identity does not
  survive the process boundary (decoded payloads are fresh objects;
  ``Address`` only preserves ``is`` through :meth:`Address.intern`).
- **P005** synchronization primitives acquired inside handlers
  (``Lock.acquire``, ``Condition/Event.wait``, ``queue.Queue.get``,
  ``Thread.join``); A002 covers sleep/IO, this covers lock-shaped
  stalls that can deadlock a shard's worker pool.
- **P006** unpinnable component: mutable state with no section-2.6
  ``dump_state``/``load_state`` hooks, so the component cannot be
  migrated to rebalance shards.

Command line: ``python -m repro.analysis par src examples`` (the one
front-end every pass shares); also part of ``python -m repro.analysis all``.
"""

from pathlib import Path
from typing import Iterable, Optional

from ..config import AnalysisConfig
from ..findings import Finding
from .model import ParModel

__all__ = ["ParModel", "analyze_paths"]


def analyze_paths(
    paths: Iterable[Path | str], config: Optional[AnalysisConfig] = None
) -> list[Finding]:
    """Run the par pass over files/directories; returns sorted findings."""
    from ..driver import analyze_paths as analyze

    return analyze("par", paths, config)
