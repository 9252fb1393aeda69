"""Shared benchmark infrastructure: clusters, drivers, workload plumbing."""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import replace as dc_replace
from typing import Optional

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.cats import (
    CatsConfig,
    CatsSimulator,
    Experiment,
    GetCmd,
    GetRequest,
    GetResponse,
    JoinNode,
    KeySpace,
    PutCmd,
    PutGet,
    PutRequest,
    PutResponse,
    new_op_id,
)
from repro.core.dispatch import trigger
from repro.simulation import Simulation

FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))


def bench_config(**overrides) -> CatsConfig:
    base = CatsConfig(
        key_space=KeySpace(bits=16),
        replication_degree=3,
        stabilize_period=0.5,
        fd_interval=1.0,
        cyclon_period=1.0,
        op_timeout=1.0,
    )
    return dc_replace(base, **overrides)


class BlockingDriver(ComponentDefinition):
    """Requires PutGet; offers blocking put/get for benchmark threads."""

    def __init__(self) -> None:
        super().__init__()
        self.putget = self.requires(PutGet)
        self._pending: dict[int, "queue.Queue"] = {}
        self._lock = threading.Lock()
        self.subscribe(self.on_put_response, self.putget)
        self.subscribe(self.on_get_response, self.putget)

    def _issue(self, request, op_id: int, timeout: float):
        inbox: "queue.Queue" = queue.Queue(maxsize=1)
        with self._lock:
            self._pending[op_id] = inbox
        try:
            self.trigger(request, self.putget)
            return inbox.get(timeout=timeout)
        finally:
            with self._lock:
                self._pending.pop(op_id, None)

    def put(self, key: int, value, timeout: float = 10.0) -> PutResponse:
        op_id = new_op_id()
        return self._issue(PutRequest(key, value, op_id=op_id), op_id, timeout)

    def get(self, key: int, timeout: float = 10.0) -> GetResponse:
        op_id = new_op_id()
        return self._issue(GetRequest(key, op_id=op_id), op_id, timeout)

    def _complete(self, response) -> None:
        with self._lock:
            inbox = self._pending.get(response.op_id)
        if inbox is not None:
            try:
                inbox.put_nowait(response)
            except queue.Full:
                pass

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        self._complete(response)

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        self._complete(response)


class LocalCatsCluster:
    """A real-time in-process CATS cluster with a blocking client driver."""

    def __init__(
        self,
        node_ids,
        config: Optional[CatsConfig] = None,
        workers: int = 4,
        coordinator: Optional[int] = None,
    ) -> None:
        self.node_ids = list(node_ids)
        self.config = config or bench_config()
        self.system = ComponentSystem(
            scheduler=WorkStealingScheduler(workers=workers), fault_policy="record"
        )
        built = {}

        class Main(ComponentDefinition):
            def __init__(inner) -> None:
                super().__init__()
                built["sim"] = inner.create(CatsSimulator, self.config)
                built["driver"] = inner.create(BlockingDriver)
                built["main"] = inner

        self.system.bootstrap(Main)
        self.simulator = built["sim"].definition
        self.driver = built["driver"].definition
        self._main = built["main"]

        for node_id in self.node_ids:
            self.drive(JoinNode(node_id))
            time.sleep(0.15)
        self._wait_ring()
        target = coordinator if coordinator is not None else self.node_ids[0]
        node = self.simulator.hosts[target].definition.node
        self._main.connect(node.provided(PutGet), self.driver.core.port(PutGet, False).outside)

    def drive(self, command) -> None:
        trigger(command, self.simulator.core.port(Experiment, provided=True).outside)

    def _wait_ring(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            joined = [
                host.definition.node.definition.joined
                for host in self.simulator.hosts.values()
            ]
            views = [
                host.definition.node.definition.abd.definition.my_view is not None
                for host in self.simulator.hosts.values()
            ]
            if all(joined) and all(views):
                return
            time.sleep(0.05)
        raise TimeoutError("cluster did not form in time")

    def close(self) -> None:
        self.system.shutdown()


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


def print_table(title: str, headers, rows) -> None:
    """Render one paper-style results table to the terminal."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
