"""Distribution-readiness analysis (rules ``D001``, ``D004``, ``D006``).

The thread-based runtime shares one address space, so a payload can smuggle
a lock or a component reference across a channel and nothing breaks —
until ROADMAP items 1–2 split the
:class:`~repro.core.system.ComponentSystem` across processes.  This pass
proves, statically and whole-program, that every event and every component
can survive a process boundary:

- ``D001`` unserializable-event-payload — event fields typed as runtime
  objects (components, ports, channels), OS resources, or callables.
- ``D004`` non-transferable-state — component state holds an OS resource
  and the class has no section-2.6 ``dump_state``/``load_state`` override.
- ``D006`` codec-coverage — events crossing ``Network`` ports with no
  compact-codec registration (they ride the pickle fallback at wire speed).

Like the lint and flow passes this is name-based and degrades to silence:
a name the index cannot ground is never reported.  The facts live on the
shared :class:`~repro.analysis.program.Program` (``program.dist``), and
:func:`classify_events` exposes the D001 verdicts so the round-trip
property suite can pin static judgement to the runtime pickle codec
(``tests/property/test_dist_roundtrip.py``).

Command line: ``python -m repro.analysis dist src examples``.
"""

from pathlib import Path
from typing import Iterable, Optional

from ..config import AnalysisConfig
from ..findings import Finding
from .checks import classify_events
from .model import DistModel, EventVerdict

__all__ = ["DistModel", "EventVerdict", "analyze_paths", "classify_events"]


def analyze_paths(
    paths: Iterable[Path | str], config: Optional[AnalysisConfig] = None
) -> list[Finding]:
    """Run the dist pass over files/directories; returns sorted findings."""
    from ..driver import analyze_paths as analyze

    return analyze("dist", paths, config)
