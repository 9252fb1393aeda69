"""CATS on the shard harness: a store partitioned across OS processes.

This is the CATS face of :mod:`repro.runtime.shard` — paper Fig 10's
deployment, assembled the way ``python -m repro.cats node`` assembles it
and spread over worker processes.  Each worker hosts a slice of the ring
(:class:`ShardCatsHost` roots, each on its own ``AioTcpNetwork``); the
coordinator process hosts the ``BootstrapServer`` the nodes find each
other through, runs the client plane (CatsClient on its own
``AioTcpNetwork``) and records an operation
:class:`~repro.consistency.history.History` for linearizability checking.

All cross-shard traffic — ring stabilization, failure-detector pings,
ABD quorum rounds, client requests — travels as compact-codec frames
over sockets the workers dial directly, so a run of this module is an
end-to-end exercise of the wire format the ``par`` pass reasons about.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..core.component import ComponentDefinition
from ..core.handler import handles
from ..network.address import Address
from ..network.aio import AioTcpNetwork
from ..network.message import Network
from ..protocols.bootstrap.server import BootstrapServer
from ..runtime.shard import ShardCluster, ShardSpec
from ..timer.port import Timer
from ..timer.thread_timer import ThreadTimer
from .events import (
    GetRequest,
    GetResponse,
    PutGet,
    PutRequest,
    PutResponse,
    new_op_id,
)
from .key import KeySpace
from .node import CatsConfig, CatsNode
from .remote import CatsClient, RemoteApiServer

__all__ = [
    "ShardCatsHost",
    "CatsShardCoordinator",
    "cats_shard_worker",
]


def _make_config(bootstrap: Address, overrides: dict) -> CatsConfig:
    defaults = dict(
        key_space=KeySpace(bits=16),
        replication_degree=3,
        stabilize_period=0.2,
        fd_interval=0.5,
        op_timeout=2.0,
        bootstrap_server=bootstrap,
    )
    defaults.update(overrides)
    return CatsConfig(**defaults)


class ShardCatsHost(ComponentDefinition):
    """One CATS node inside a shard worker: AioTcpNetwork + ThreadTimer +
    CatsNode + RemoteApiServer, the per-node assembly of Fig 10."""

    def __init__(self, node_id: int, bootstrap: Address,
                 config_overrides: Optional[dict] = None) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id))
        self.address = net.definition.address
        timer = self.create(ThreadTimer)
        self.node = self.create(
            CatsNode, self.address, _make_config(bootstrap, config_overrides or {})
        )
        api = self.create(RemoteApiServer, self.address)
        for child in (self.node, api):
            self.connect(net.provided(Network), child.required(Network))
        self.connect(timer.provided(Timer), self.node.required(Timer))
        self.connect(self.node.provided(PutGet), api.required(PutGet))


def cats_shard_worker(context, node_ids, bootstrap, config_overrides) -> None:
    """Worker builder: host ``node_ids``, joining through ``bootstrap``.

    Referenced by spec string ``"repro.cats.sharding:cats_shard_worker"``;
    runs in a fresh spawned interpreter.
    """
    system = context.make_system()
    hosts = {}
    for node_id in node_ids:
        component = system.bootstrap(
            ShardCatsHost, node_id, bootstrap, dict(config_overrides)
        )
        hosts[node_id] = component.definition
        context.register_address(component.definition.address)

    def joined() -> dict:
        return {
            node_id: host.node.definition.joined
            for node_id, host in hosts.items()
        }

    def ring_status() -> dict:
        return {
            node_id: host.node.definition.ring.definition.status()
            for node_id, host in hosts.items()
        }

    context.register_call("joined", joined)
    context.register_call("ring_status", ring_status)


class _Waiter:
    """One in-flight client op: completion event + its response."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.response = None

    def complete(self, response) -> None:
        self.response = response
        self.done.set()


class _ClientRecorder(ComponentDefinition):
    """Requires PutGet; completes the coordinator's blocking waiters."""

    def __init__(self) -> None:
        super().__init__()
        self.putget = self.requires(PutGet)
        self._pending: dict[int, _Waiter] = {}
        self.subscribe(self.on_put_response, self.putget)
        self.subscribe(self.on_get_response, self.putget)

    def execute(self, request, op_id: int, timeout: float):
        """Issue a Put/GetRequest and block until its response (or None)."""
        waiter = _Waiter()
        self._pending[op_id] = waiter
        self.trigger(request, self.putget)
        if not waiter.done.wait(timeout):
            self._pending.pop(op_id, None)
            return None
        return waiter.response

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        waiter = self._pending.pop(response.op_id, None)
        if waiter is not None:
            waiter.complete(response)

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        waiter = self._pending.pop(response.op_id, None)
        if waiter is not None:
            waiter.complete(response)

    def dump_state(self) -> dict:
        # Waiters hold live threading.Events owned by coordinator threads;
        # only the op-id routing survives a section-2.6 handover.
        return dict(self._pending)

    def load_state(self, state: dict) -> None:
        self._pending = dict(state)


class _BootstrapHost(ComponentDefinition):
    """The coordinator's bootstrap service, through which the workers'
    nodes find each other (``python -m repro.cats bootstrap-server``)."""

    def __init__(self) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, Address("127.0.0.1", 0))
        self.address = net.definition.address
        timer = self.create(ThreadTimer)
        server = self.create(BootstrapServer, self.address)
        self.connect(net.provided(Network), server.required(Network))
        self.connect(timer.provided(Timer), server.required(Timer))


class _ClientHost(ComponentDefinition):
    """The coordinator-side client plane: AioTcpNetwork + CatsClient."""

    def __init__(self, server: Address) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=1))
        client = self.create(CatsClient, net.definition.address, server)
        self.recorder = self.create(_ClientRecorder)
        self.connect(net.provided(Network), client.required(Network))
        self.connect(client.provided(PutGet), self.recorder.required(PutGet))


def _round_robin(node_ids, workers: int) -> list[tuple[int, ...]]:
    shards: list[list[int]] = [[] for _ in range(workers)]
    for position, node_id in enumerate(node_ids):
        shards[position % workers].append(node_id)
    return [tuple(shard) for shard in shards if shard]


class CatsShardCoordinator:
    """Run a CATS cluster across N shard workers and drive client ops.

    Usage::

        coordinator = CatsShardCoordinator([100, 20_000, 40_000], workers=2)
        try:
            coordinator.wait_joined()
            coordinator.put(7, "a")
            found, value = coordinator.get(7)
        finally:
            coordinator.close()

    Every operation is recorded in ``coordinator.history`` in the form
    :func:`repro.consistency.check_history` consumes.
    """

    def __init__(self, node_ids, workers: int = 2,
                 config_overrides: Optional[dict] = None,
                 server_id: Optional[int] = None) -> None:
        from ..consistency.history import NOT_FOUND, History
        from ..runtime.system import ComponentSystem

        self._not_found = NOT_FOUND
        self.node_ids = tuple(node_ids)
        overrides = dict(config_overrides or {})
        self.system = ComponentSystem(name="shard-coordinator")
        self.cluster: Optional[ShardCluster] = None
        try:
            bootstrap = self.system.bootstrap(_BootstrapHost).definition.address
            self.cluster = ShardCluster([
                ShardSpec(
                    "repro.cats.sharding:cats_shard_worker",
                    (shard, bootstrap, overrides),
                )
                for shard in _round_robin(self.node_ids, workers)
            ])
            self.cluster.wait_ready(timeout=120.0)
            #: node id -> the address its worker bound and announced
            self.addresses = {
                address.node_id: address
                for index in range(self.cluster.workers)
                for address in self.cluster.addresses(index)
            }
            server = self.addresses[
                server_id if server_id is not None else self.node_ids[0]
            ]
            host = self.system.bootstrap(_ClientHost, server)
            self._recorder = host.definition.recorder.definition
        except Exception:
            self.close()
            raise
        self.history = History()
        self._history_lock = threading.Lock()

    # ------------------------------------------------------------- control

    def wait_joined(self, timeout: float = 60.0) -> None:
        """Block until every node on every worker reports joined."""
        deadline = time.monotonic() + timeout
        while True:
            states: dict[int, bool] = {}
            for index in range(self.cluster.workers):
                states.update(self.cluster.call(index, "joined"))
            if all(states.get(node_id) for node_id in self.node_ids):
                return
            if time.monotonic() > deadline:
                raise TimeoutError(f"ring never formed: joined={states}")
            time.sleep(0.1)

    def close(self) -> None:
        self.system.shutdown()
        if self.cluster is not None:
            self.cluster.close()

    def __enter__(self) -> "CatsShardCoordinator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ----------------------------------------------------------- client ops

    def put(self, key: int, value, timeout: float = 15.0,
            process: str = "client") -> bool:
        op_id = new_op_id()
        with self._history_lock:
            self.history.invoke(
                op_id, process, "put", key, value=value, time=time.monotonic()
            )
        response = self._recorder.execute(
            PutRequest(key, value, op_id=op_id), op_id, timeout
        )
        if response is None or not response.ok:
            return False  # pending in the history: may or may not take effect
        with self._history_lock:
            self.history.respond(op_id, time.monotonic())
        return True

    def get(self, key: int, timeout: float = 15.0,
            process: str = "client"):
        """Returns ``(found, value)``, or None for a failed/timed-out get."""
        op_id = new_op_id()
        with self._history_lock:
            self.history.invoke(
                op_id, process, "get", key, time=time.monotonic()
            )
        response = self._recorder.execute(
            GetRequest(key, op_id=op_id), op_id, timeout
        )
        if response is None or not response.ok:
            with self._history_lock:
                self.history.discard(op_id)  # a failed get took no effect
            return None
        result = response.value if response.found else self._not_found
        with self._history_lock:
            self.history.respond(op_id, time.monotonic(), result=result)
        return (response.found, response.value)
