"""Shard-safety analysis (rules ``P005``, ``P006``).

Multi-process scale-out (ROADMAP item 1) pins root subtrees of a
``ComponentSystem`` to worker processes.  A subtree is movable only if
its handlers never stall the worker pool and its state can be handed to
another process.  The runtime oracle is :mod:`repro.runtime.shard`
(a multiprocessing harness whose workers each run ordinary
``AioTcpNetwork`` components and send cross-shard messages to each other
as compact frames), differential-tested in ``tests/runtime/test_shard.py``:

- **P005** synchronization primitives acquired inside handlers
  (``Lock.acquire``, ``Condition/Event.wait``, ``queue.Queue.get``,
  ``Thread.join``): lock-shaped stalls that can deadlock a shard's
  worker pool.
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

__all__ = ["analyze_paths"]


def analyze_paths(
    paths: Iterable[Path | str], config: Optional[AnalysisConfig] = None
) -> list[Finding]:
    """Run the par pass over files/directories; returns sorted findings."""
    from ..driver import analyze_paths as analyze

    return analyze("par", paths, config)
