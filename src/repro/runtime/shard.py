"""Multi-process shard harness: one component tree, N OS processes.

The paper's deployment argument (section 5) is that a Kompics system
scales by *sharding*: the root's create-subtrees are placed onto separate
schedulers — here, separate OS processes — and every message that crosses
the shard cut travels through the Network abstraction instead of by
object reference.  This module is the runtime oracle for the static
``par`` pass (rules P001–P006): it makes the shard cut *real*, so the
hazards the pass predicts (process-divergent module state, identity
affinity, codec gaps) become observable behaviour differences.

Shape:

- A coordinator (the parent process) spawns one worker per
  :class:`ShardSpec`.  Workers are fresh ``spawn`` interpreters — no
  inherited module state — connected to the coordinator by a duplex pipe.
- Inside a worker, a :func:`ShardSpec.builder` (a ``"module:callable"``
  spec, resolved by import) bootstraps components onto a per-worker
  ComponentSystem.  A worker is a process running the normal Network
  component: its hosts bind ordinary ``AioTcpNetwork`` listeners and
  the workers dial each other directly, so no Network message between
  two processes passes through the coordinator.
- The coordinator keeps membership, placement and RPC only: which
  worker announced which address, and named calls into a worker.

The pipe protocol carries control alone — tagged tuples::

    child -> parent: ("ready", addresses), ("result", seq, ok, payload),
                     ("error", text)
    parent -> child: ("call", seq, name, args), ("stop",)

``("call", ...)`` gives tests and benchmarks named observables inside a
worker (joined flags, planted-fixture counters, trace fingerprints); a
fixture that needs a peer's address receives it as a call argument.
"""

from __future__ import annotations

import importlib
import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..network.address import Address

__all__ = [
    "ShardSpec",
    "ShardCluster",
    "ShardWorkerError",
    "WorkerContext",
    "resolve_spec",
]


def resolve_spec(spec: str) -> Callable:
    """Resolve a ``"module:callable"`` builder spec by import."""
    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ValueError(f"builder spec must be 'module:callable', got {spec!r}")
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@dataclass(frozen=True)
class ShardSpec:
    """One worker's share of the tree.

    ``builder`` is a ``"module:callable"`` spec resolved *in the worker*
    (the callable itself never crosses the pipe); it is invoked as
    ``builder(context, *args)`` with a :class:`WorkerContext`.  ``args``
    must be picklable.
    """

    builder: str
    args: tuple = ()


# --------------------------------------------------------------- child side


class WorkerContext:
    """Child-side harness state: the pipe, announced addresses, named calls.

    A builder typically does::

        def my_worker(ctx, *args):
            system = ctx.make_system()
            host = system.bootstrap(...).definition  # hosts an AioTcpNetwork
            ctx.register_address(host.address)
            ctx.register_call("observable", lambda: ...)
    """

    def __init__(self, conn, index: int) -> None:
        self.conn = conn
        self.index = index
        self._systems: list = []
        self._calls: dict[str, Callable] = {}
        self._addresses: list[Address] = []

    # -- builder API

    def make_system(self, **kwargs):
        """A real-time ComponentSystem, shut down when the worker stops."""
        from .system import ComponentSystem

        kwargs.setdefault("name", f"shard-{self.index}")
        system = ComponentSystem(**kwargs)
        self._systems.append(system)
        return system

    def register_address(self, address: Address) -> None:
        """Announce a bound node address to the coordinator when ready."""
        self._addresses.append(address)

    def register_call(self, name: str, fn: Callable) -> None:
        """Expose a named observable the coordinator can invoke."""
        self._calls[name] = fn

    # -- harness plumbing

    def serve(self) -> None:
        """Announce readiness, then answer calls until the coordinator says stop."""
        self.conn.send(("ready", tuple(self._addresses)))
        while True:
            payload = self.conn.recv()
            if payload[0] == "stop":
                break
            _, seq, name, args = payload
            try:
                self.conn.send(("result", seq, True, self._calls[name](*args)))
            except Exception:
                self.conn.send(("result", seq, False, traceback.format_exc()))
        for system in self._systems:
            try:
                system.shutdown()
            except Exception:
                pass


def _shard_worker(conn, index: int, spec: ShardSpec) -> None:
    """Worker process entry point (must be importable for spawn)."""
    context = WorkerContext(conn, index)
    try:
        builder = resolve_spec(spec.builder)
        builder(context, *spec.args)
        context.serve()
    except EOFError:
        pass  # coordinator died; exit quietly
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (OSError, BrokenPipeError):
            pass


# -------------------------------------------------------------- parent side


class ShardWorkerError(RuntimeError):
    """A worker failed to build, died, or a call inside it raised."""


@dataclass
class _WorkerHandle:
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    addresses: Optional[tuple[Address, ...]] = None  # None until "ready"
    seq: int = 0  # of the last call sent; older results are stale
    lock: threading.Lock = field(default_factory=threading.Lock)


class ShardCluster:
    """Coordinator for N shard workers: membership, placement and RPC."""

    def __init__(self, specs: list[ShardSpec]) -> None:
        if not specs:
            raise ValueError("a ShardCluster needs at least one ShardSpec")
        # spawn, never fork: a fresh interpreter per worker is what makes
        # module globals honestly per-process (P001).
        ctx = multiprocessing.get_context("spawn")
        self._workers: list[_WorkerHandle] = []
        self._owner: dict[Address, int] = {}
        self._closed = False
        for index, spec in enumerate(specs):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_shard_worker,
                args=(child_conn, index, spec),
                name=f"shard-worker-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(process=process, conn=parent_conn))

    def _receive(self, index: int, deadline: float, timeout_message: str) -> tuple:
        """The next control message from worker ``index`` (its lock held).

        A ``"ready"`` announcement is recorded on the way through; an
        ``"error"`` or a closed pipe raises :class:`ShardWorkerError`.
        """
        worker = self._workers[index]
        if not worker.conn.poll(max(0.0, deadline - time.monotonic())):
            raise TimeoutError(timeout_message)
        try:
            payload = worker.conn.recv()
        except (EOFError, OSError):
            payload = ("error", "worker pipe closed unexpectedly")
        if payload[0] == "error":
            raise ShardWorkerError(f"shard worker {index} failed:\n{payload[1]}")
        if payload[0] == "ready":
            worker.addresses = payload[1]
            for address in worker.addresses:
                self._owner[address] = index
        return payload

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every worker announced its addresses (or errored)."""
        deadline = time.monotonic() + timeout
        for index, worker in enumerate(self._workers):
            with worker.lock:
                while worker.addresses is None:
                    self._receive(index, deadline, f"shard worker {index} not ready")

    def addresses(self, worker_index: int) -> tuple[Address, ...]:
        """The node addresses a ready worker announced."""
        return self._workers[worker_index].addresses or ()

    def owner_of(self, address: Address) -> Optional[int]:
        return self._owner.get(address)

    def call(self, worker_index: int, name: str, *args,
             timeout: float = 60.0):
        """Invoke a named observable inside a worker and return its value.

        Each call carries a sequence number; an answer to a call that
        timed out earlier is discarded when it finally arrives.
        """
        worker = self._workers[worker_index]
        deadline = time.monotonic() + timeout
        with worker.lock:
            worker.seq += 1
            seq = worker.seq
            worker.conn.send(("call", seq, name, args))
            timeout_message = f"call {name!r} on worker {worker_index} timed out"
            while True:
                payload = self._receive(worker_index, deadline, timeout_message)
                if payload[0] == "result" and payload[1] == seq:
                    break
        _, _, ok, value = payload
        if not ok:
            raise ShardWorkerError(
                f"call {name!r} on worker {worker_index} raised:\n{value}"
            )
        return value

    @property
    def workers(self) -> int:
        return len(self._workers)

    def close(self, timeout: float = 10.0) -> None:
        """Stop workers and join their processes."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers:
            worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout)
            worker.conn.close()

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
