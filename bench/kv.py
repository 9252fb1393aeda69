"""CATS get/put over real sockets: ``kv_tcp_small`` and ``kv_tcp_large``.

One interpreter hosts a bootstrap server, three CATS nodes and two remote
clients, every host on its own ``AioTcpNetwork`` built with default
constructor arguments (as ``python -m repro.cats node`` builds them) and
talking only through its own sockets on the loopback interface.

Phase A is a closed loop (each client issues its next operation from the
response handler of the previous one) and gives throughput and CPU per
operation.  Phase B is an open loop at a rate fixed below, at about 40 % of
the phase-A throughput measured when the benchmark was defined; latency is
timed from each operation's *due* time.
"""

from __future__ import annotations

import random
import sys
import time
import zlib
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from time import perf_counter

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.cats import (
    CatsClient,
    CatsConfig,
    CatsNode,
    GetRequest,
    GetResponse,
    PutGet,
    PutRequest,
    PutResponse,
    RemoteApiServer,
)
from repro.consistency import NOT_FOUND, History, check_history
from repro.network import Address, AioTcpNetwork, Network
from repro.protocols.bootstrap import BootstrapServer
from repro.timer import ThreadTimer, Timer

from . import probes, spans
from .hostspeed import HostSpeed
from .layers import median_rate, queued_frames, socket_counters, socket_layer_metrics
from .result import Outcome
from .stats import measure_windows, median, percentile, sleep_until, wait_until
from .taps import NetTap, PutGetTap, TraceLog, splice, time_codec_in_place

NODES = 3
CLIENTS = 2
KEYS = 1024
KEY_BITS = 32
WINDOWS = 6
WARMUP_S = 1.5
BLOCK_SETTLE_S = 0.05  # closed loop running again before a phase-A window starts
PRELOAD_CHAINS = 8  # operations each client keeps in flight while pre-loading


@dataclass(frozen=True)
class Mix:
    put_share: float
    value_bytes: int
    zipf: bool
    #: phase-B operations per second, about 40 % of phase-A throughput on
    #: the machine the benchmark was defined on; a constant, so that a
    #: faster stack shows as lower latency, not as more load.
    open_loop_rate: float


MIXES = {
    "kv_tcp_small": Mix(put_share=0.5, value_bytes=64, zipf=False, open_loop_rate=360.0),
    "kv_tcp_large": Mix(put_share=0.1, value_bytes=8192, zipf=True, open_loop_rate=330.0),
}


class OpStream:
    """The generated inputs of one client: kind, key and value per operation."""

    FILLER = b"the quick brown fox jumps over the lazy dog; "

    def __init__(self, seed: int, index: int, mix: Mix, keys: list[int]) -> None:
        self.rng = random.Random(seed * CLIENTS + index)
        self.index = index
        self.mix = mix
        self.keys = keys
        self.issued = 0
        if mix.zipf:
            # Zipf(1.0): weight 1/rank, sampled by bisecting the running total.
            self.cumulative = list(accumulate(1.0 / rank for rank in range(1, len(keys) + 1)))
            self.body = self.FILLER * (mix.value_bytes // len(self.FILLER) + 1)
        else:
            self.body = random.Random(seed).randbytes(mix.value_bytes)

    def next_id(self) -> int:
        self.issued += 1
        return self.issued * CLIENTS + self.index

    def value(self, op_id: int) -> bytes:
        """A value no other put writes: the checker tells puts apart by it."""
        return (b"%012d" % op_id + self.body)[: self.mix.value_bytes]

    def next(self) -> tuple[int, str, int, object]:
        rng = self.rng
        if self.mix.zipf:
            key = self.keys[bisect_left(self.cumulative, rng.random() * self.cumulative[-1])]
        else:
            key = self.keys[rng.randrange(len(self.keys))]
        op_id = self.next_id()
        if rng.random() < self.mix.put_share:
            return op_id, "put", key, self.value(op_id)
        return op_id, "get", key, None


def digest(value: bytes) -> tuple[bytes, int]:
    """What the load generator keeps of a value: its unique prefix and a checksum.

    Keeping the values themselves (8 KiB each on ``kv_tcp_large``) made the
    process's peak memory a measure of the generator, not of the store.  The
    first twelve bytes are the writing put's op id, so two puts never share a
    digest, and a value damaged on the way matches no put at all.
    """
    return bytes(value[:12]), zlib.crc32(value)


@dataclass(slots=True)
class OpRecord:
    kind: str
    key: int
    value: object  # a put's value, as its digest
    due: float    # when the schedule wanted it sent (the send time in a closed loop)
    sent: float
    done: float = 0.0
    ok: bool = False
    result: object = None


class LoadApp(ComponentDefinition):
    """The load generator's end of one client connection (requires PutGet)."""

    def __init__(self, stream: OpStream) -> None:
        super().__init__()
        self.putget = self.requires(PutGet)
        self.stream = stream
        self.backlog: deque = deque()
        self.closed_loop = False
        self.records: dict[int, OpRecord] = {}
        #: op ids in completion order
        self.finished: list[int] = []
        self.subscribe(self.on_put_response, self.putget)
        self.subscribe(self.on_get_response, self.putget)

    def send(self, op: tuple, due: float | None = None) -> None:
        op_id, kind, key, value = op
        now = perf_counter()
        self.records[op_id] = OpRecord(
            kind, key, value and digest(value), now if due is None else due, now)
        if kind == "put":
            self.trigger(PutRequest(key, value, op_id=op_id), self.putget)
        else:
            self.trigger(GetRequest(key, op_id=op_id), self.putget)

    def pump(self) -> None:
        if self.backlog:
            self.send(self.backlog.popleft())
        elif self.closed_loop:
            self.send(self.stream.next())

    def outstanding(self) -> int:
        return len(self.records) - len(self.finished)

    def _finish(self, op_id: int, ok: bool, result: object) -> None:
        record = self.records[op_id]
        record.done, record.ok, record.result = perf_counter(), ok, result
        self.finished.append(op_id)
        self.pump()

    @handles(PutResponse)
    def on_put_response(self, response: PutResponse) -> None:
        self._finish(response.op_id, response.ok, True)

    @handles(GetResponse)
    def on_get_response(self, response: GetResponse) -> None:
        self._finish(
            response.op_id, response.ok, digest(response.value) if response.found else NOT_FOUND)


class BootstrapHost(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        net = self.create(AioTcpNetwork, Address("127.0.0.1", 0))
        self.address = net.definition.address
        timer = self.create(ThreadTimer)
        server = self.create(BootstrapServer, self.address)
        self.connect(net.provided(Network), server.required(Network))
        self.connect(timer.provided(Timer), server.required(Timer))


class NodeHost(ComponentDefinition):
    """One CATS node with the remote API beside it, as the CLI's node role."""

    def __init__(self, node_id: int, bootstrap: Address) -> None:
        super().__init__()
        self.net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id))
        self.address = self.net.definition.address
        timer = self.create(ThreadTimer)
        self.node = self.create(CatsNode, self.address, CatsConfig(bootstrap_server=bootstrap))
        self.api = self.create(RemoteApiServer, self.address)
        for child in (self.node, self.api):
            self.connect(self.net.provided(Network), child.required(Network))
        self.connect(timer.provided(Timer), self.node.required(Timer))
        self.connect(self.node.provided(PutGet), self.api.required(PutGet))

    def ready(self) -> bool:
        node = self.node.definition
        return node.joined and len(node.abd.definition.status()["group"]) == NODES

    def splice_taps(self, log: TraceLog) -> None:
        tag = self.address.port
        time_codec_in_place(self.net.definition.codec, log)
        splice(self, self.create(NetTap, log, tag), self.net, [self.node, self.api], Network)
        splice(self, self.create(PutGetTap, log, tag), self.node, [self.api], PutGet)


class ClientHost(ComponentDefinition):
    def __init__(self, index: int, server: Address, stream: OpStream) -> None:
        super().__init__()
        self.net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, 900 + index))
        self.address = self.net.definition.address
        self.client = self.create(CatsClient, self.address, server)
        self.connect(self.net.provided(Network), self.client.required(Network))
        self.app = self.create(LoadApp, stream)
        self.connect(self.client.provided(PutGet), self.app.required(PutGet))

    def splice_taps(self, log: TraceLog) -> None:
        time_codec_in_place(self.net.definition.codec, log)
        splice(self, self.create(NetTap, log, self.address.port), self.net, [self.client], Network)


class Cluster(ComponentDefinition):
    def __init__(self, streams: list[OpStream]) -> None:
        super().__init__()
        self.bootstrap = self.create(BootstrapHost)
        step = (1 << KEY_BITS) // NODES
        self.nodes = [
            self.create(NodeHost, 1000 + index * step, self.bootstrap.definition.address)
            for index in range(NODES)
        ]
        self.clients = [
            self.create(ClientHost, index, self.nodes[index].definition.address, stream)
            for index, stream in enumerate(streams)
        ]

    def networks(self):
        return [host.definition.net.definition for host in (*self.nodes, *self.clients)]


def _drain(apps: list[LoadApp], timeout: float = 15.0) -> None:
    for app in apps:
        app.closed_loop = False
    try:
        wait_until(lambda: all(app.outstanding() == 0 for app in apps), timeout, "operations to finish")
    except TimeoutError:
        pass  # counted as failed operations by the caller


def _closed_loop(apps: list[LoadApp]) -> None:
    for app in apps:
        app.closed_loop = True
        app.pump()


def _open_loop(apps: list[LoadApp], rate: float, duration: float) -> tuple[float, float]:
    """Send on a fixed schedule, whatever the system does; returns (start, end)."""
    start = perf_counter() + 0.01
    total = max(1, int(rate * duration))
    for number in range(total):
        due = start + number / rate
        sleep_until(due)
        app = apps[number % len(apps)]
        app.send(app.stream.next(), due)
    return start, start + total / rate


def _records_due_in(apps: list[LoadApp], start: float, end: float) -> list[OpRecord]:
    return [
        record
        for app in apps
        for record in app.records.values()
        if start <= record.due < end
    ]


def _latencies_ms(records: list[OpRecord]) -> list[float]:
    """Completion minus due time; a failed operation misses every figure."""
    return [1e3 * (record.done - record.due) for record in records if record.ok]


def _generator_lag_ms_p95(records: list[OpRecord]) -> float:
    return percentile([1e3 * (record.sent - record.due) for record in records], 0.95)


def _check_history(apps: list[LoadApp], outcome: Outcome) -> float:
    history = History()
    for index, app in enumerate(apps):
        for op_id, record in app.records.items():
            history.invoke(
                op_id, index, record.kind, record.key, value=record.value, time=record.sent)
            if record.ok:
                history.respond(op_id, record.done, result=record.result)
    # The checker recurses once per operation on a key; the hottest Zipf
    # key collects several hundred.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    start = perf_counter()
    verdict = check_history(history)
    elapsed = perf_counter() - start
    outcome.check(verdict.linearizable, f"history is not linearizable: {verdict.reason}")
    return elapsed


def _untraced(outcome: Outcome, host: HostSpeed, mix: Mix, apps, counters, seconds: float) -> None:
    """Phase A and phase B in alternating blocks, nothing attached: the end-to-end metrics.

    Alternating, so that both phases see the whole run: the host is disturbed
    for seconds at a time, and a disturbance then costs each phase one window
    of six, which the median over the windows ignores, instead of costing one
    phase half of its windows.
    """
    closed, slices = [], []
    for _block in range(WINDOWS):
        _closed_loop(apps)
        time.sleep(BLOCK_SETTLE_S)
        closed += measure_windows(1, seconds * 0.4 / WINDOWS, counters)
        _drain(apps)
        start, end = _open_loop(apps, mix.open_loop_rate, seconds * 0.6 / WINDOWS)
        _drain(apps)
        slices.append((start, end, _records_due_in(apps, start, end)))
    outcome.set_end_to_end(
        host, closed, [(start, end, _latencies_ms(records)) for start, end, records in slices])
    timed = [record for _start, _end, records in slices for record in records]
    for kind in ("get", "put"):
        of_kind = _latencies_ms([r for r in timed if r.kind == kind])
        outcome.reported[f"uncorrected.{kind}_p50_ms"] = (median(of_kind), "ms")
        outcome.reported[f"uncorrected.{kind}_p95_ms"] = (percentile(of_kind, 0.95), "ms")
        outcome.samples[f"{kind} latency (phase B)"] = len(of_kind)
    outcome.reported["payload_mb_per_s"] = (
        outcome.metrics["ops_per_s"] * mix.value_bytes / 1e6, "MB/s")
    outcome.reported["gen_lag_ms_p95"] = (_generator_lag_ms_p95(timed), "ms")


def _traced(outcome: Outcome, mix: Mix, cluster: Cluster, apps, counters, seconds: float,
            mini: bool) -> TraceLog:
    """An untraced reference, then the taps go in: the per-layer metrics."""
    networks = cluster.networks()
    reference = measure_windows(3, seconds * 0.15 / 3, counters)
    _drain(apps)
    log = TraceLog()
    for host in (*cluster.nodes, *cluster.clients):
        host.definition.splice_taps(log)
    _closed_loop(apps)
    time.sleep(0.2 if mini else 0.5)
    depth: list[int] = []
    closed = measure_windows(
        WINDOWS, seconds * 0.35 / WINDOWS, counters,
        during=lambda: depth.append(queued_frames(networks)),
    )
    _drain(apps)
    start, end = _open_loop(apps, mix.open_loop_rate, seconds * 0.5)
    _drain(apps)
    outcome.metrics = socket_layer_metrics(closed, "ops", log, depth, mix.value_bytes)
    outcome.metrics["bench.trace_overhead_share"] = 1.0 - median_rate(closed) / median_rate(reference)
    outcome.metrics["bench.gen_lag_ms_p95"] = _generator_lag_ms_p95(
        _records_due_in(apps, start, end))
    traced_seconds = closed[-1]["end"] - closed[0]["start"]
    spans.analyse_kv(outcome, log, apps, (start, end), closed[0]["start"], traced_seconds, NODES)
    retries = sum(host.definition.node.definition.abd.definition.retries for host in cluster.nodes)
    outcome.metrics["cats.abd.retries_per_op"] = retries / sum(len(app.finished) for app in apps)
    return log


def run(name: str, seed: int, seconds: float, trace: int, mini: bool, host: HostSpeed) -> Outcome:
    mix = MIXES[name]
    outcome = Outcome(name, seed, trace)
    outcome.notes.append("traffic crosses the loopback interface of one host; no link figure is claimed")
    key_rng = random.Random(seed)
    keys = [key_rng.getrandbits(KEY_BITS) for _ in range(64 if mini else KEYS)]
    streams = [OpStream(seed, index, mix, keys) for index in range(CLIENTS)]

    system = ComponentSystem(scheduler=WorkStealingScheduler(workers=2))
    try:
        cluster = system.bootstrap(Cluster, streams).definition
        apps = [host.definition.app.definition for host in cluster.clients]
        networks = cluster.networks()
        wait_until(
            lambda: all(host.definition.ready() for host in cluster.nodes), 60.0,
            "the ring to form and every node to install its replication group",
        )
        # Pre-load every key (round-robin over the clients), which also
        # dials the client connections.
        for position, key in enumerate(keys):
            stream = streams[position % CLIENTS]
            op_id = stream.next_id()
            apps[position % CLIENTS].backlog.append((op_id, "put", key, stream.value(op_id)))
        for app in apps:
            for _ in range(PRELOAD_CHAINS):
                app.pump()
        wait_until(lambda: all(app.outstanding() == 0 for app in apps), 60.0, "the pre-load")
        outcome.setup_s = host.setup_s()

        def counters():
            totals = socket_counters(system, networks)
            totals["ops"] = sum(len(app.finished) for app in apps)
            return totals

        _closed_loop(apps)
        time.sleep(0.3 if mini else WARMUP_S)
        if trace:
            log = _traced(outcome, mix, cluster, apps, counters, seconds, mini)
        else:
            _untraced(outcome, host, mix, apps, counters, seconds)
        outcome.attempted = sum(len(app.records) for app in apps)
        outcome.failed = sum(
            1 for app in apps for record in app.records.values() if not record.ok)
        dropped = sum(net.dropped_frames for net in networks)
        outcome.check(dropped == 0, f"{dropped} frames shed")
        outcome.check(outcome.failed == 0, f"{outcome.failed} operations failed or timed out")
    finally:
        system.shutdown()
    check_s = _check_history(apps, outcome)
    if trace:
        outcome.metrics["consistency.check_s"] = check_s
        outcome.metrics.update(probes.socket_probes(log.sample_messages))
    else:
        outcome.reported["consistency_check_s"] = (check_s, "s")
    return outcome
