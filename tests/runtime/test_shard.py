"""The shard harness as an oracle for the ``par`` pass (P001–P006).

Three differentials, per the harness contract:

1. *Fingerprint identity* — a deterministic CATS simulation executed
   inside a single spawned shard worker produces the byte-identical trace
   fingerprint as the same simulation in this process: moving a whole
   tree behind the shard boundary changes nothing.
2. *Linearizability under sharding* — a CATS cluster split across two
   workers, with all ring/quorum traffic crossing the cut as compact
   frames between the workers' own sockets, still serves a linearizable
   register.
3. *Planted divergence* — the P001 (module-global state) and P004
   (identity-keyed dedup) fixture defects behave differently across the
   cut than within a shard, while their clean twins do not.
"""

from __future__ import annotations

import time

import pytest

from repro.cats.sharding import CatsShardCoordinator
from repro.consistency import check_history
from repro.consistency.history import NOT_FOUND
from repro.runtime.shard import ShardCluster, ShardSpec, ShardWorkerError, resolve_spec

from . import shard_fixtures

FIXTURES = "tests.runtime.shard_fixtures"


def _poll(fn, target, timeout=30.0):
    deadline = time.monotonic() + timeout
    value = fn()
    while value != target and time.monotonic() < deadline:
        time.sleep(0.05)
        value = fn()
    return value


def _address_of(cluster, node_id):
    """The address a worker announced for ``node_id``."""
    return next(
        address
        for index in range(cluster.workers)
        for address in cluster.addresses(index)
        if address.node_id == node_id
    )


# ------------------------------------------------------------ plumbing


def test_resolve_spec():
    assert resolve_spec(f"{FIXTURES}:poke_worker") is shard_fixtures.poke_worker
    with pytest.raises(ValueError):
        resolve_spec("no_colon_here")


def test_cluster_requires_specs():
    with pytest.raises(ValueError):
        ShardCluster([])


def test_call_after_a_timed_out_call_returns_the_fresh_value():
    with ShardCluster([ShardSpec(f"{FIXTURES}:rpc_worker")]) as cluster:
        cluster.wait_ready()
        with pytest.raises(TimeoutError):
            cluster.call(0, "value", timeout=0.2)
        # The first call's late answer (1) must not pass for this one's.
        assert cluster.call(0, "value") == 2


def test_call_that_raises_reports_the_worker_traceback():
    with ShardCluster([ShardSpec(f"{FIXTURES}:rpc_worker")]) as cluster:
        cluster.wait_ready()
        with pytest.raises(ShardWorkerError, match="ZeroDivisionError"):
            cluster.call(0, "boom")


def test_call_into_a_dead_worker_raises():
    with ShardCluster([ShardSpec(f"{FIXTURES}:rpc_worker")]) as cluster:
        cluster.wait_ready()
        with pytest.raises(ShardWorkerError, match="pipe closed"):
            cluster.call(0, "exit", timeout=10.0)


def test_worker_build_failure_surfaces_in_wait_ready():
    with ShardCluster([ShardSpec(f"{FIXTURES}:failing_worker")]) as cluster:
        with pytest.raises(ShardWorkerError, match="planted build failure"):
            cluster.wait_ready()


def test_wait_ready_times_out_on_a_slow_builder():
    with ShardCluster([ShardSpec(f"{FIXTURES}:rpc_worker", (0.5,))]) as cluster:
        with pytest.raises(TimeoutError, match="not ready"):
            cluster.wait_ready(timeout=0.1)
        cluster.wait_ready()  # the late announcement still lands
        with pytest.raises(ShardWorkerError, match="ZeroDivisionError"):
            cluster.call(0, "boom")


def test_workers_announce_their_bound_addresses():
    specs = [
        ShardSpec(f"{FIXTURES}:poke_worker", ((node_id,), 1, False))
        for node_id in (1, 2)
    ]
    with ShardCluster(specs) as cluster:
        cluster.wait_ready()
        (one,), (two,) = cluster.addresses(0), cluster.addresses(1)
        assert (one.node_id, two.node_id) == (1, 2)
        assert one.host == two.host == "127.0.0.1"
        assert 0 not in (one.port, two.port) and one.port != two.port
        assert (cluster.owner_of(one), cluster.owner_of(two)) == (0, 1)


# ------------------------------------- differential 1: fingerprint identity


def test_single_shard_reproduces_in_process_fingerprint():
    seed = 7
    plain = shard_fixtures.traced_cats_fingerprint(seed)
    assert plain[1] > 100  # the scenario actually executed work
    with ShardCluster(
        [ShardSpec(f"{FIXTURES}:fingerprint_worker", (seed,))]
    ) as cluster:
        cluster.wait_ready()
        sharded = tuple(cluster.call(0, "fingerprint", timeout=120.0))
    assert sharded == plain


# --------------------------------------- differential 2: linearizability


def test_two_worker_cats_cluster_is_linearizable():
    coordinator = CatsShardCoordinator(
        [100, 20_000, 40_000, 60_000], workers=2
    )
    try:
        # Round-robin placement really cuts the ring across processes.
        owners = {
            coordinator.cluster.owner_of(coordinator.addresses[node_id])
            for node_id in coordinator.node_ids
        }
        assert owners == {0, 1}
        coordinator.wait_joined(timeout=90.0)

        assert coordinator.put(7, "a")
        assert coordinator.get(7) == (True, "a")
        assert coordinator.put(7, "b")
        assert coordinator.get(7) == (True, "b")
        assert coordinator.get(9_999) == (False, None)

        result = check_history(coordinator.history)
        assert result.linearizable, result.reason
        get_results = [
            op.result for op in coordinator.history.operations
            if op.kind == "get" and op.complete
        ]
        assert get_results == ["a", "b", NOT_FOUND]
    finally:
        coordinator.close()


# --------------------------------- differential 3: planted P001 divergence


def _run_poke(placements, use_global, count=5):
    """Run the P001 fixture with the given node placement; return
    (per-worker global counters, merged per-node received counts)."""
    specs = [
        ShardSpec(f"{FIXTURES}:poke_worker", (node_ids, count, use_global))
        for node_ids in placements
    ]
    with ShardCluster(specs) as cluster:
        cluster.wait_ready()
        peers = {1: _address_of(cluster, 2), 2: _address_of(cluster, 1)}
        for index in range(cluster.workers):
            cluster.call(index, "kick", peers)
        received: dict[int, int] = {}
        expected_total = count * 2

        def merged():
            received.clear()
            for index in range(cluster.workers):
                received.update(cluster.call(index, "received"))
            return sum(received.values())

        assert _poll(merged, expected_total) == expected_total
        globals_per_worker = [
            cluster.call(index, "global_count")
            for index in range(cluster.workers)
        ]
    return globals_per_worker, received


def test_p001_module_state_diverges_across_shard_cut():
    # One shard: both sinks bump the *same* module global -> it totals 10.
    single, received_single = _run_poke([(1, 2)], use_global=True)
    assert single == [10]
    # Across the cut: each process has its own copy -> two halves, never 10.
    split, received_split = _run_poke([(1,), (2,)], use_global=True)
    assert split == [5, 5]
    # The per-instance counts (the clean twin's observable) never diverge.
    assert received_single == received_split == {1: 5, 2: 5}


def test_p001_clean_twin_is_placement_independent():
    _, received_single = _run_poke([(1, 2)], use_global=False)
    _, received_split = _run_poke([(1,), (2,)], use_global=False)
    assert received_single == received_split == {1: 5, 2: 5}


# --------------------------------- differential 3: planted P004 divergence


def _run_identity(split: bool, dedup: str) -> int:
    if split:
        specs = [
            ShardSpec(f"{FIXTURES}:identity_worker", (True, False, dedup)),
            ShardSpec(f"{FIXTURES}:identity_worker", (False, True, dedup)),
        ]
        sender, receiver = 0, 1
    else:
        specs = [ShardSpec(f"{FIXTURES}:identity_worker", (True, True, dedup))]
        sender = receiver = 0
    with ShardCluster(specs) as cluster:
        cluster.wait_ready()
        cluster.call(sender, "kick", _address_of(cluster, 2))
        processed = _poll(
            lambda: cluster.call(receiver, "processed"),
            2 if (split and dedup == "identity") else 1,
            timeout=10.0,
        )
    return processed


def test_p004_identity_dedup_diverges_across_shard_cut():
    # Behind one network: both deliveries are the same object -> deduplicated.
    assert _run_identity(split=False, dedup="identity") == 1
    # Across the cut every frame decodes to a fresh object: the id()-keyed
    # dedup silently stops working -- the duplicate is processed.
    assert _run_identity(split=True, dedup="identity") == 2


def test_p004_clean_twin_dedups_in_both_placements():
    assert _run_identity(split=False, dedup="seq") == 1
    assert _run_identity(split=True, dedup="seq") == 1
