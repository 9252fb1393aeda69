"""Table 1: simulated-time compression vs. number of peers.

The paper simulates CATS for 4275 s of simulated time and reports the
ratio simulated-time / wall-clock-time ("time compression"):

    peers:        64    128    256    512    1024   2048  4096  8192
    compression: 475x  237.5x 118.75x 59.38x 28.31x 11.74x 4.96x 2.01x

We regenerate the same experiment: boot N CATS nodes under deterministic
simulation, run a steady-state window of churnless operation plus periodic
protocol traffic (stabilization, failure detection, Cyclon) and lookups,
and report simulated/wall time per N.  The shape to reproduce: compression
falls roughly inversely with N (each simulated second costs O(N) events).
Absolute ratios are far below the JVM numbers — pure-Python event dispatch
is the substrate — so the crossover to 1x lands at a smaller N; see
EXPERIMENTS.md.

Each size times ``REPS`` consecutive steady windows and keeps the one with
the least CPU time (``time.process_time``), which rejects transient
machine-load spikes; results land in ``BENCH_table1.json``.

Knobs: ``REPRO_SIM_HORIZON`` (steady-window length per rep, default 15 s),
``REPRO_BENCH_PEERS`` (comma-separated override of the peer counts),
``REPRO_BENCH_REPS`` (windows per size, default 3),
``REPRO_BENCH_FULL=1`` (extend to 512/1024 peers).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import ComponentDefinition
from repro.cats import CatsSimulator, Experiment, JoinNode, LookupCmd
from repro.core.dispatch import trigger
from repro.simulation import Simulation

from benchmarks.support import FULL, bench_config, print_table

HORIZON = float(os.environ.get("REPRO_SIM_HORIZON", "15"))
REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
if os.environ.get("REPRO_BENCH_PEERS"):
    PEERS = [int(n) for n in os.environ["REPRO_BENCH_PEERS"].split(",")]
else:
    PEERS = [32, 64, 128, 256] + ([512, 1024] if FULL else [])

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_table1.json")

PAPER_ROWS = {
    64: 475.0, 128: 237.5, 256: 118.75, 512: 59.38,
    1024: 28.31, 2048: 11.74, 4096: 4.96, 8192: 2.01,
}

_results: dict[int, dict] = {}


def run_simulation(peers: int, reps: int = 1) -> dict:
    simulation = Simulation(seed=7)
    built = {}

    class Main(ComponentDefinition):
        def __init__(self) -> None:
            super().__init__()
            built["sim"] = self.create(CatsSimulator, bench_config())

    simulation.bootstrap(Main)
    simulator = built["sim"].definition
    experiment_port = simulator.core.port(Experiment, provided=True).outside
    rng = simulation.system.random

    # Boot N peers quickly (0.05 s apart in virtual time), then settle.
    for index in range(peers):
        trigger(JoinNode(rng.randrange(0, 1 << 16)), experiment_port)
        simulation.run(until=simulation.now() + 0.05)
    simulation.run(until=simulation.now() + 10.0)

    # Steady-state windows: periodic protocols + a background lookup load
    # proportional to the system size (as in the paper's scenario).
    lookup_interval = max(0.01, 2.0 / peers)
    next_lookup = simulation.now()
    windows = []
    for _ in range(max(1, reps)):
        events_before = simulation.events_dispatched
        horizon = simulation.now() + HORIZON
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        while simulation.now() < horizon:
            next_lookup += lookup_interval
            trigger(
                LookupCmd(rng.randrange(0, 1 << 16), rng.randrange(0, 1 << 14)),
                experiment_port,
            )
            simulation.run(until=min(next_lookup, horizon))
        windows.append(
            {
                "cpu_s": time.process_time() - cpu_start,
                "wall_s": time.perf_counter() - wall_start,
                "events": simulation.events_dispatched - events_before,
            }
        )

    best = min(windows, key=lambda w: w["cpu_s"])
    return {
        "peers": peers,
        "alive": simulator.alive_count,
        "simulated_s": HORIZON,
        "reps": len(windows),
        "window_events": [w["events"] for w in windows],
        "cpu_s": best["cpu_s"],
        "wall_s": best["wall_s"],
        "events": best["events"],
        "events_per_cpu_s": best["events"] / best["cpu_s"],
        "events_per_wall_s": best["events"] / best["wall_s"],
        "compression": HORIZON / best["wall_s"],
    }


@pytest.mark.parametrize("peers", PEERS)
def test_table1_time_compression(benchmark, peers):
    result = benchmark.pedantic(
        run_simulation, args=(peers, REPS), iterations=1, rounds=1
    )
    _results[peers] = result
    benchmark.extra_info.update(result)
    assert result["alive"] >= peers * 0.9  # the ring actually formed


@pytest.fixture(scope="module", autouse=True)
def table1_report():
    """Assemble Table 1 and persist BENCH_table1.json.

    Runs as module teardown so it works under --benchmark-only.
    """
    yield
    if not _results:
        return
    rows = []
    for peers in sorted(_results):
        r = _results[peers]
        paper = PAPER_ROWS.get(peers, "-")
        rows.append(
            (
                peers,
                f"{r['compression']:.2f}x",
                f"{paper}x" if paper != "-" else "-",
                f"{r['events_per_cpu_s']:.0f}",
                r["events"],
            )
        )
    print_table(
        f"Table 1 — time compression over {HORIZON:.0f}s simulated",
        ("peers", "compression", "paper(4275s, JVM)", "ev/cpu-s", "events"),
        rows,
    )
    payload = {
        "benchmark": "table1_time_compression",
        "horizon_s": HORIZON,
        "reps": REPS,
        "rows": [_results[peers] for peers in sorted(_results)],
    }
    with open(RESULTS_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # Shape check: compression decreases monotonically with peer count.
    ordered = [_results[peers]["compression"] for peers in sorted(_results)]
    assert all(a > b for a, b in zip(ordered, ordered[1:])), ordered
