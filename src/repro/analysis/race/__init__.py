"""Concurrency analysis for the component model: the second analysis pass.

Where the sanitizer (rules ``S0xx``) enforces single-component invariants
at the moment they break, this package checks the *cross-component* claims
of the paper — race-free execution (§2.1, §5) and fully reproducible
simulation (§3) — with three coordinated tools:

1. **Happens-before tracking** (:mod:`.hb`, :mod:`.recorder`, rule
   ``R001``) — vector clocks attached to every handler execution, with
   edges from trigger→delivery, channel hold/resume and plug/unplug,
   lifecycle Start/Stop, and reconfiguration state transfer; an
   object-access recorder reports conflicting accesses to the same
   non-event object that no happens-before edge orders.
2. **Determinism checking** (:mod:`.determinism`, rule ``R002``) — run a
   scenario twice with trace capture and diff the traces modulo
   happens-before commutativity, naming the first diverging event and a
   root-cause classification (wall-clock read, iteration-order, unseeded
   randomness).
3. **Schedule exploration** (:mod:`.explorer`, rule ``R003``) — permute
   same-timestamp event-queue entries and ready-component order under a
   seeded controller, shrink any failing interleaving to a minimal
   schedule, and emit a replay file that re-executes it exactly.

Command line: ``python -m repro.analysis race <scenario>`` with
``--determinism``, ``--explore N`` and ``--replay FILE`` modes.  The
tracker attaches to the runtime's one observer seam
(:mod:`repro.core.observe`), beside the sanitizer and the simulation
profiler if they are on; with nothing attached the seam is one None
test per hook site (``benchmarks/bench_observer_overhead.py``).
"""

from .determinism import DeterminismReport, check_determinism, compare_traces
from .explorer import (
    ExplorationResult,
    ReplayResult,
    ScheduleController,
    explore,
    load_replay,
    replay,
    save_replay,
)
from .hb import Epoch, HBTracker
from .hooks import (
    RaceRuntime,
    active_runtime,
    note_read,
    note_write,
    race_tracking,
    track_object,
)
from .vector_clock import VectorClock

__all__ = [
    "DeterminismReport",
    "Epoch",
    "ExplorationResult",
    "HBTracker",
    "RaceRuntime",
    "ReplayResult",
    "ScheduleController",
    "VectorClock",
    "active_runtime",
    "check_determinism",
    "compare_traces",
    "explore",
    "load_replay",
    "note_read",
    "note_write",
    "race_tracking",
    "replay",
    "save_replay",
    "track_object",
]
