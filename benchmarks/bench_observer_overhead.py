"""Observer overhead: the default-off path must cost nothing measurable.

The profiler, the race tracker and the sanitizer all attach to one seam,
:mod:`repro.core.observe`.  Every hook site (trigger, work-item execution,
channel commands, reconfiguration, event-queue scheduling, the simulation
loop) reads its one slot and tests it against ``None``; with nothing
attached that test is the whole cost, and ``Event`` carries no
``__setattr__`` override.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_observer_overhead.py -q

Compare the round-trip rates: ``off`` must match
``bench_core_ops.py::test_event_round_trip_rate`` (same workload).  The
``race`` rate quantifies the full vector-clock + payload-probe cost and
``sanitizer`` the seal + re-entrancy check; both modes are opt-in for
debugging and expected to be slower.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.analysis import sanitizer
from repro.analysis.race import hooks as race_hooks
from repro.analysis.race import race_tracking
from repro.core import observe

from tests.kit import Collector, EchoServer, Ping, PingPort, Scaffold, make_system

MODES = {
    "off": contextlib.nullcontext,
    "race": race_tracking,
    "sanitizer": sanitizer.sanitized,
}


def build_world():
    system = make_system()
    built = {}

    def build(scaffold):
        built["server"] = scaffold.create(EchoServer)
        built["client"] = scaffold.create(Collector, count=0)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    system.await_quiescence()
    return system, built


def test_default_path_has_no_observer_attached():
    """The zero-overhead claim, verified structurally: with every client
    off the seam is empty — nothing is sealed, stamped, probed or timed —
    and ``Event`` is plain slot access."""
    from repro.core import event as event_mod
    from repro.core.event import Event

    assert observe.observer is None
    assert race_hooks.active_runtime() is None
    assert not sanitizer.is_enabled()
    assert event_mod._mutation_check is None
    assert "__setattr__" not in Event.__dict__
    assert "__delattr__" not in Event.__dict__


@pytest.mark.parametrize("mode", list(MODES))
def test_round_trip_rate(benchmark, mode):
    """trigger -> channel -> handler -> reply -> handler, per observer mode."""
    with MODES[mode]():
        system, built = build_world()
        client = built["client"].definition

        def round_trip():
            client.trigger(Ping(1), client.port)
            system.await_quiescence()

        benchmark(round_trip)
        system.shutdown()
    assert observe.observer is None
