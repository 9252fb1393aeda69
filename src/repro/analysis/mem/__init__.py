"""Memory-footprint analysis (rules ``M001``, ``M002``, ``M003``, ``M006``).

The million-peer simulation (ROADMAP item 3) dies by a thousand
``__dict__``s: every unslotted event and per-peer record pays a dict
header, and every handler that hoards a collection grows without bound.
This pass proves the tree free of those costs statically, and the
tracemalloc oracle (``tests/property/test_mem_footprint.py`` +
``benchmarks/bench_footprint.py``) keeps the verdicts honest at runtime:

- **M001** missing-``__slots__`` on an ``Event``/``Component``/``Port``
  subclass whose entire base chain is already slot-complete (recognizes
  ``@dataclass(slots=True)`` and inherited slot chains; dict-based roots
  degrade to silence because slotting a leaf under them saves nothing).
- **M002** unbounded-growth collections: a component attribute grown
  inside handlers with no discard/del/clear/pop/replacement site
  anywhere in the class.
- **M003** retained-event: a handler stores the delivered event object
  (or a mutable payload field of it) into ``self.*``.
- **M006** heavyweight default: a mutable ``default_factory`` on an
  event field where an empty-tuple sentinel suffices.

Command line: ``python -m repro.analysis mem src examples`` (the one
front-end every pass shares); also part of ``python -m repro.analysis all``.
"""

from pathlib import Path
from typing import Iterable, Optional

from ..config import AnalysisConfig
from ..findings import Finding
from .model import MemModel, SlotInfo

__all__ = ["MemModel", "SlotInfo", "analyze_paths"]


def analyze_paths(
    paths: Iterable[Path | str], config: Optional[AnalysisConfig] = None
) -> list[Finding]:
    """Run the mem pass over files/directories; returns sorted findings."""
    from ..driver import analyze_paths as analyze

    return analyze("mem", paths, config)
