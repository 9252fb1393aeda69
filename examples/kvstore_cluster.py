#!/usr/bin/env python3
"""A linearizable key-value store cluster in one process (paper section 4).

Boots a 5-node CATS cluster in local interactive mode (loopback network,
thread timers, work-stealing scheduler), writes and reads through
different coordinator nodes, kills a replica, and shows that committed
data survives the failure.

Run:  python examples/kvstore_cluster.py
"""

import sys
import time

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.cats import (
    CatsConfig,
    CatsSimulator,
    Experiment,
    FailNode,
    GetCmd,
    GetResponse,
    JoinNode,
    KeySpace,
    PutCmd,
)
from repro.core.dispatch import trigger


class ClusterMain(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.sim = self.create(
            CatsSimulator,
            CatsConfig(
                key_space=KeySpace(bits=16),
                replication_degree=3,
                stabilize_period=0.2,
                fd_interval=0.4,
                op_timeout=1.0,
            ),
        )


def drive(simulator, command) -> None:
    trigger(command, simulator.core.port(Experiment, provided=True).outside)


def wait_for(predicate, timeout=15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def main() -> int:
    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=4))
    root = system.bootstrap(ClusterMain)
    simulator = root.definition.sim.definition
    stats = simulator.stats

    node_ids = [5_000, 18_000, 31_000, 44_000, 57_000]
    print(f"booting {len(node_ids)} CATS nodes...")
    for node_id in node_ids:
        drive(simulator, JoinNode(node_id))
        time.sleep(0.4)
    time.sleep(3.0)
    print(f"cluster up: {simulator.alive_count} nodes\n")

    print("putting user:alice -> 'hello' via node 5000...")
    drive(simulator, PutCmd(node_id=5_000, key=12_345, value="hello"))
    wait_for(lambda: stats.puts_completed == 1)
    print(f"put completed (latency {stats.op_latencies[-1] * 1000:.2f} ms)")

    print("reading the key through every node as coordinator...")
    for node_id in node_ids:
        before = stats.gets_completed
        drive(simulator, GetCmd(node_id=node_id, key=12_345))
        wait_for(lambda: stats.gets_completed > before)
        print(f"  via node {node_id}: get ok "
              f"(latency {stats.op_latencies[-1] * 1000:.2f} ms)")

    print("\nkilling the primary replica of the key...")
    drive(simulator, FailNode(node_id=12_345))
    wait_for(lambda: stats.failures == 1)
    time.sleep(6.0)  # let the failure detector and view reconfiguration run

    before = stats.gets_completed
    drive(simulator, GetCmd(node_id=44_000, key=12_345))
    ok = wait_for(lambda: stats.gets_completed > before, timeout=20.0)
    print(f"read after primary failure: {'ok — value survived' if ok else 'FAILED'}")

    print(f"\nstats: {stats.puts_completed} puts, {stats.gets_completed} gets, "
          f"{stats.failures} failures injected")
    system.shutdown()
    return 0 if ok else 1


#: Root component for aggregate wiring verification
#: (``python -m repro.analysis all --wiring-examples examples``).
WIRING_ROOT = ClusterMain


if __name__ == "__main__":
    sys.exit(main())
