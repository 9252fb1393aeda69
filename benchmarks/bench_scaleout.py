"""Scale-out: CATS ops/sec in-process vs. partitioned across shard workers.

Drives the same closed-loop put/get workload against three deployments
of a 4-node CATS ring:

* ``plain``   — one process, LoopbackNetwork (``LocalCatsCluster``).
* ``shard_1`` — the whole ring inside one spawned shard worker, client
  traffic crossing the process boundary as compact frames over aio
  sockets (every node and the client plane on its own ``AioTcpNetwork``).
* ``shard_2`` / ``shard_4`` — the ring round-robined across 2/4 workers,
  which dial each other directly, so ring stabilization and ABD quorum
  rounds cross the cut too.

Each client performs a fixed CPU "crunch" before every operation — the
application-side work a real middleware request carries (deserialize,
validate, compute, render).  Without it the benchmark degenerates into
a race of empty no-op round-trips, where the process crossing *is* the
entire cost and no deployment choice could ever pass; with it, the
gate measures the harness tax as a fraction of a realistic request.

Gates: only ``shard_1 >= 0.8x plain`` is enforced — the harness tax for
moving an unchanged tree behind the boundary must stay under 20%.  The
multi-worker numbers are report-only unless the machine actually has
>= 4 CPUs (a 1-CPU container cannot exhibit scale-out, only overhead);
the JSON records whether the speedup gate was enforced.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_scaleout.py -q
Env:  REPRO_BENCH_SCALEOUT_OPS=<n>     ops per deployment (default 48)
      REPRO_BENCH_SCALEOUT_CRUNCH=<n>  crunch iterations/op (default 100000)
      REPRO_BENCH_FULL=1               240 ops per deployment
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from benchmarks.support import FULL, LocalCatsCluster, bench_config, print_table
from repro.cats.sharding import CatsShardCoordinator

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_scaleout.json")

NODE_IDS = [100, 20_000, 40_000, 60_000]
WINDOW = 8  # concurrent closed-loop clients; amortizes the socket round-trip
OPS = int(os.environ.get("REPRO_BENCH_SCALEOUT_OPS", "240" if FULL else "48"))
CRUNCH_ROUNDS = int(os.environ.get("REPRO_BENCH_SCALEOUT_CRUNCH", "100000"))
SINGLE_SHARD_FLOOR = 0.8
FOUR_WORKER_SPEEDUP_MIN = 2.0
FOUR_WORKER_GATE = (os.cpu_count() or 1) >= 4

_results: dict[str, dict] = {}


def _drive(put, get) -> dict:
    """Run WINDOW concurrent closed-loop clients; time the whole batch."""
    per_client = OPS // WINDOW
    failures = [0] * WINDOW

    def client(tid: int) -> None:
        acc = 0
        for i in range(per_client):
            for j in range(CRUNCH_ROUNDS):  # per-request application work
                acc += j * j
            key = (tid * per_client + i // 2) % 64 + 1
            if i % 2 == 0:
                ok = put(key, f"v{tid}-{i}", tid)
            else:
                ok = get(key, tid) is not None
            if not ok:
                failures[tid] += 1

    clients = [
        threading.Thread(target=client, args=(tid,), daemon=True)
        for tid in range(WINDOW)
    ]
    start = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    elapsed = time.perf_counter() - start
    total = per_client * WINDOW
    assert sum(failures) == 0, f"{sum(failures)}/{total} operations failed"
    return {"ops": total, "elapsed_s": elapsed, "ops_per_sec": total / elapsed}


def _measure_plain() -> dict:
    config = bench_config(stabilize_period=0.2, fd_interval=0.5, op_timeout=2.0)
    cluster = LocalCatsCluster(NODE_IDS, config=config)
    try:
        return _drive(
            lambda key, value, tid: cluster.driver.put(key, value).ok,
            lambda key, tid: cluster.driver.get(key),
        )
    finally:
        cluster.close()


def _measure_shard(workers: int) -> dict:
    with CatsShardCoordinator(NODE_IDS, workers=workers) as coordinator:
        coordinator.wait_joined(timeout=120.0)
        # Distinct process names per client thread keep the recorded
        # history well-formed (one outstanding op per process).
        return _drive(
            lambda key, value, tid: coordinator.put(
                key, value, process=f"client-{tid}"
            ),
            lambda key, tid: coordinator.get(key, process=f"client-{tid}"),
        )


def test_plain_in_process(benchmark):
    result = benchmark.pedantic(_measure_plain, iterations=1, rounds=1)
    _results["plain"] = result
    benchmark.extra_info.update(result)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_sharded(benchmark, workers):
    result = benchmark.pedantic(_measure_shard, args=(workers,), iterations=1, rounds=1)
    _results[f"shard_{workers}"] = result
    benchmark.extra_info.update(result)


@pytest.fixture(scope="module", autouse=True)
def scaleout_report():
    """Assemble the table, persist BENCH_scaleout.json, gate the floor.

    Runs as module teardown so it works under --benchmark-only.
    """
    yield
    if not _results:
        return
    plain = _results.get("plain", {}).get("ops_per_sec")
    shard_1 = _results.get("shard_1", {}).get("ops_per_sec")
    rows = []
    for name in ("plain", "shard_1", "shard_2", "shard_4"):
        r = _results.get(name)
        if r is None:
            continue
        vs_plain = r["ops_per_sec"] / plain if plain else None
        vs_one = r["ops_per_sec"] / shard_1 if shard_1 else None
        rows.append(
            (
                name,
                f"{r['ops_per_sec']:.1f}",
                f"{vs_plain:.2f}x" if vs_plain else "-",
                f"{vs_one:.2f}x" if vs_one and name.startswith("shard") else "-",
                r["ops"],
            )
        )
    print_table(
        f"CATS scale-out — {OPS} ops, {len(NODE_IDS)} nodes, "
        f"{os.cpu_count()} CPU(s)",
        ("deployment", "ops/s", "vs plain", "vs shard_1", "ops"),
        rows,
    )
    payload = {
        "benchmark": "cats_scaleout",
        "cpus": os.cpu_count(),
        "ops": OPS,
        "window": WINDOW,
        "crunch_rounds": CRUNCH_ROUNDS,
        "node_ids": NODE_IDS,
        "full": FULL,
        "gates": {
            "single_shard_vs_plain_min": SINGLE_SHARD_FLOOR,
            "four_worker_speedup_min": FOUR_WORKER_SPEEDUP_MIN,
            "four_worker_gate_enforced": FOUR_WORKER_GATE,
        },
    }
    for name in ("plain", "shard_1", "shard_2", "shard_4"):
        r = _results.get(name)
        if r is None:
            continue
        entry = {"ops_per_sec": r["ops_per_sec"]}
        if name != "plain" and plain:
            entry["vs_plain"] = r["ops_per_sec"] / plain
        if name in ("shard_2", "shard_4") and shard_1:
            entry["vs_one_shard"] = r["ops_per_sec"] / shard_1
        payload[name] = entry
    with open(RESULTS_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    # The only enforced floor on small machines: the shard-harness tax.
    if plain and shard_1:
        ratio = shard_1 / plain
        assert ratio >= SINGLE_SHARD_FLOOR, (
            f"single-shard CATS runs at {ratio:.2f}x the in-process rate; "
            f"floor is {SINGLE_SHARD_FLOOR:.2f}x"
        )
    if FOUR_WORKER_GATE and shard_1 and "shard_4" in _results:
        speedup = _results["shard_4"]["ops_per_sec"] / shard_1
        assert speedup >= FOUR_WORKER_SPEEDUP_MIN, (
            f"4-worker speedup {speedup:.2f}x below "
            f"{FOUR_WORKER_SPEEDUP_MIN:.1f}x on a {os.cpu_count()}-CPU host"
        )
