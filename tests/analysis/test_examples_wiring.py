"""Every example assembly builds with zero wiring findings.

Each ``examples/`` script declares its root component via a module-level
``WIRING_ROOT`` attribute (the convention the aggregate CLI's
``--wiring-examples`` flag consumes); these tests construct the full tree
under a ManualScheduler (nothing executes, Start stays queued) and run
the wiring verifier over it.  This is the "assemble, verify, never start"
workflow ``docs/analysis.md`` describes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import ComponentSystem, ManualScheduler
from repro.analysis import verify_system
from repro.analysis.driver import load_wiring_root

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: every example script must opt in; update when adding examples
EXPECTED = {
    "quickstart",
    "dynamic_reconfiguration",
    "kvstore_cluster",
    "web_monitoring",
    "deterministic_debugging",
    "simulation_churn",
    "tcp_cluster",
}


def test_every_example_declares_a_wiring_root():
    declared = {
        path.stem
        for path in EXAMPLES.glob("*.py")
        if load_wiring_root(path) is not None
    }
    assert declared == EXPECTED


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_example_assembly_has_clean_wiring(name):
    root_cls = load_wiring_root(EXAMPLES / f"{name}.py")
    assert root_cls is not None, f"{name}.py lost its WIRING_ROOT"
    system = ComponentSystem(scheduler=ManualScheduler(), seed=7)
    try:
        system.bootstrap(root_cls)
        findings = verify_system(system)
        assert findings == [], "\n".join(f.format() for f in findings)
    finally:
        system.shutdown()
