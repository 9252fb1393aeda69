"""The simulator: ``sim_steady`` (the Table-1 scenario) and ``sim_churn``.

One *operation* here is one simulated second: ``ops_per_s`` is simulated
seconds per wall second (the paper's time compression), ``cpu_us_per_op``
the CPU time one simulated second costs, ``op_p50_ms``/``op_p95_ms`` the
wall time of single simulated seconds.  Only the default queue engine and
run loop are measured, on a ``CatsSimulator`` with its default configuration.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, process_time

from repro import ComponentDefinition
from repro.cats import (
    CatsSimulator,
    Experiment,
    FailNode,
    GetCmd,
    JoinNode,
    LookupCmd,
    PutCmd,
)
from repro.consistency import check_history
from repro.simulation import Simulation, emulator_of

from . import probes
from .hostspeed import HostSpeed
from .layers import MESSAGE_LAYER
from .result import Outcome
from .stats import current_rss_kb, median, percentile

JOIN_GAP = 0.05        # simulated seconds between boot joins
SETTLE = 10.0          # simulated seconds after the last join
WINDOWS = 6            # the timed seconds are cut into this many equal windows
CHECKPOINT_PEERS = 32  # the in-run replay boots this many peers again
OP_GAP = 0.05          # sim_churn: simulated seconds between operations
ANCHORS = 32           # sim_churn: nodes that never fail; each owns two of the 64 hot keys
FRESH = 5.0            # a node younger than this (sim-s) is not failed yet
CHURN_SPACING = 3      # ring positions kept between two churn events ...
CHURN_MEMORY = 6.0     # ... that are less than this many simulated seconds apart
DRAIN = 15.0
#: The ring that is booted is the same in every run.  Its formation is
#: chaotic in the seed (1 to 10 s of host time for the same 128 peers), which
#: would bury any change to setup_s under the choice of seed; --seed drives
#: every command issued once the ring stands.
BOOT_SEED = 18


@dataclass(frozen=True)
class Shape:
    peers: int
    warmup_s: int      # simulated seconds of load before timing starts
    block_s: int       # simulated seconds per block (traced runs profile every other block)
    exact_after_s: int  # the exact counters are taken after this many timed seconds
    least_s: int       # timed simulated seconds, however short --seconds is
    per_second: int    # timed simulated seconds per second of --seconds
    unshaped_s: int = 0  # traced sim_churn: simulated seconds of the issue's unshaped churn

    def timed_s(self, seconds: float, mini: bool) -> int:
        """Simulated seconds to time: whole blocks, the same for a given --seconds.

        A fixed span of simulated time, not of wall time: what a simulated
        second costs drifts as the run goes on (histories and routing tables
        grow), so two runs are only comparable over the same span, and a
        slower host must not get to time a shorter, cheaper one.
        """
        wanted = self.least_s if mini else max(self.least_s, round(seconds * self.per_second))
        return -(-wanted // self.block_s) * self.block_s


#: name -> (the workload, its --mini miniature)
SHAPES = {
    "sim_steady": (Shape(128, 10, 10, 60, 60, 25), Shape(16, 5, 5, 10, 20, 25)),
    "sim_churn": (Shape(48, 10, 10, 60, 60, 30, 60), Shape(40, 5, 4, 8, 16, 30, 10)),
}
#: component definition -> layer, for Simulation.profile() grouped by definition.
DEFINITION_LAYER = {
    "EmulatedNetwork": "emulator", "ConsistentAbd": "abd", "CatsRing": "ring",
    "PingFailureDetector": "fd", "CyclonOverlay": "cyclon", "SimTimer": "timer",
}
SHARE_LAYERS = ("emulator", "abd", "ring", "fd", "cyclon", "timer", "other")
MESSAGE_NAME_LAYER = {cls.__name__: layer for cls, layer in MESSAGE_LAYER.items()}


class World(ComponentDefinition):
    def __init__(self) -> None:
        super().__init__()
        self.simulator = self.create(CatsSimulator)
        self.experiment = self.simulator.provided(Experiment)


class Run:
    """One simulation and the generated command stream that drives it."""

    def __init__(self, seed: int) -> None:
        self.simulation = Simulation(seed=BOOT_SEED)
        self.boot_rng = random.Random(BOOT_SEED)
        self.rng = random.Random(seed)
        self.world = self.simulation.bootstrap(World).definition
        self.simulator = self.world.simulator.definition
        self.key_range = self.simulator.config.key_space.size
        self.joined_at: dict[int, float] = {}
        self.boot_wall: list[float] = []
        self.at_checkpoint: dict[str, int] = {}

    def command(self, event) -> None:
        self.world.trigger(event, self.world.experiment)

    def boot(self, peers: int, checkpoint: int) -> None:
        """Join ``peers`` nodes; keep the exact counters after ``checkpoint`` of them."""
        simulation = self.simulation
        start = perf_counter()
        for number in range(1, peers + 1):
            node_id = self.boot_rng.randrange(self.key_range)
            self.command(JoinNode(node_id))
            self.joined_at.setdefault(node_id, simulation.now())
            simulation.run(until=simulation.now() + JOIN_GAP)
            self.boot_wall.append(perf_counter() - start)
            if number == checkpoint:
                self.at_checkpoint = self.exact()

    def exact(self) -> dict[str, int]:
        """Counters that one seed must reproduce to the last digit."""
        stats, queue = self.simulator.stats, self.simulation.queue
        return {
            "events": self.simulation.events_dispatched,
            "scheduled": queue.scheduled_total,
            "joins": stats.joins,
            "failures": stats.failures,
            "lookups_issued": stats.lookups_issued,
            "lookups_completed": stats.lookups_completed,
            "puts_issued": stats.puts_issued,
            "puts_completed": stats.puts_completed,
            "gets_issued": stats.gets_issued,
            "gets_completed": stats.gets_completed,
        }

    def issued_and_completed(self) -> tuple[int, int]:
        final = self.exact()
        return (
            final["lookups_issued"] + final["puts_issued"] + final["gets_issued"],
            final["lookups_completed"] + final["puts_completed"] + final["gets_completed"],
        )


class Steady:
    """Steady protocol traffic plus a lookup every 2/peers simulated seconds."""

    def __init__(self, run: Run, peers: int) -> None:
        self.run = run
        self.gap = max(0.01, 2.0 / peers)
        self.next_lookup = run.simulation.now()

    def second(self) -> None:
        run, simulation = self.run, self.run.simulation
        horizon = simulation.now() + 1.0
        while simulation.now() < horizon:
            self.next_lookup += self.gap
            run.command(LookupCmd(run.rng.randrange(run.key_range), run.rng.randrange(run.key_range)))
            simulation.run(until=min(self.next_lookup, horizon))


class Churn:
    """An operation every OP_GAP on 64 hot keys; every second a node joins or fails.

    ``shaped`` is the timed workload.  Operations go to the 64 keys owned by
    32 *anchor* nodes that never fail, each issued at the anchor that owns its
    key, and churn events less than CHURN_MEMORY apart stay CHURN_SPACING ring
    positions apart.  On that regime every operation completes and the
    history is linearizable.  Unshaped (any live node issues, any live node
    fails, any 64 keys: what the issue first asked for) the store loses a
    tenth of the operations and, in most seeds, linearizability; the traced
    run measures that beside the timed workload (``unshaped_churn``).
    """

    def __init__(self, run: Run, shaped: bool = True) -> None:
        self.run = run
        self.shaped = shaped
        rng = run.rng
        booted = sorted(run.simulator.hosts)
        if shaped:
            self.anchors = set(rng.sample(booted, min(ANCHORS, len(booted) - 4)))
            # An anchor owns its own ring id and the id just below it.
            self.owner = {
                key % run.key_range: anchor
                for anchor in sorted(self.anchors) for key in (anchor, anchor - 1)
            }
            self.keys = list(self.owner)
        else:
            self.anchors = set()
            self.keys = [rng.randrange(run.key_range) for _ in range(2 * ANCHORS)]
        self.seconds = 0
        self.values = 0
        self.recent: deque[tuple[float, int]] = deque()  # (when, ring id) of churn events
        self.join_ms: list[float] = []
        self.fail_ms: list[float] = []

    def _timed(self, event, sink: list[float]) -> None:
        simulation = self.run.simulation
        start = perf_counter()
        self.run.command(event)
        simulation.run(until=simulation.now())  # the host subtree is built or torn down here
        sink.append(1e3 * (perf_counter() - start))
        self.recent.append((simulation.now(), event.node_id))

    def _clear_of_recent_churn(self, node_id: int, alive: list[int]) -> bool:
        """True if no recent churn event lies within CHURN_SPACING ring positions.

        CATS reconfigures one replication group step by step; two changes
        to one group before the first is repaired are outside what its
        view protocol promises (see the ConsistentAbd docstring).
        """
        if not self.shaped:
            return True
        place = bisect_left(alive, node_id)
        for _when, other in self.recent:
            distance = abs(place - bisect_left(alive, other))
            if min(distance, len(alive) - distance) <= CHURN_SPACING:
                return False
        return True

    def _churn(self, now: float) -> None:
        run, rng = self.run, self.run.rng
        alive = sorted(run.simulator.hosts)
        if self.seconds % 2 == 0:
            for _ in range(64):
                node_id = rng.randrange(run.key_range)
                if node_id not in run.simulator.hosts and self._clear_of_recent_churn(node_id, alive):
                    run.joined_at[node_id] = now
                    self._timed(JoinNode(node_id), self.join_ms)
                    return
        else:
            fresh = FRESH if self.shaped else 0.0
            candidates = [
                n for n in alive
                if n not in self.anchors and now - run.joined_at.get(n, now) >= fresh
                and self._clear_of_recent_churn(n, alive)
            ]
            if candidates:
                self._timed(FailNode(rng.choice(candidates)), self.fail_ms)

    def second(self) -> None:
        run, simulation, rng = self.run, self.run.simulation, self.run.rng
        now = simulation.now()
        while self.recent and now - self.recent[0][0] > CHURN_MEMORY:
            self.recent.popleft()
        self._churn(now)
        self.seconds += 1
        for step in range(1, round(1.0 / OP_GAP) + 1):
            key = rng.choice(self.keys)
            issuer = self.owner[key] if self.shaped else rng.choice(sorted(run.simulator.hosts))
            if rng.random() < 0.5:
                self.values += 1
                run.command(PutCmd(issuer, key, self.values))
            else:
                run.command(GetCmd(issuer, key))
            simulation.run(until=now + step * OP_GAP)
        simulation.run(until=now + 1.0)


def unshaped_churn(seed: int, shape: Shape) -> dict[str, float]:
    """The issue's churn as written, for ``shape.unshaped_s`` simulated seconds; exact for a seed."""
    run = Run(seed)
    run.boot(shape.peers, 0)
    run.simulation.run(until=run.simulation.now() + SETTLE)
    load = Churn(run, shaped=False)
    for _ in range(shape.unshaped_s):
        load.second()
    run.simulation.run(until=run.simulation.now() + DRAIN)
    issued, completed = run.issued_and_completed()
    verdict = check_history(run.simulator.history)
    run.simulation.shutdown()
    return {
        "cats.churn.unshaped_failed_share": (issued - completed) / issued,
        "cats.churn.unshaped_linearizable": float(verdict.linearizable),
    }


@dataclass
class Measured:
    """What the measurement loop saw; blocks alternate plain/profiled when tracing."""

    #: (start, end, CPU seconds) of each timed simulated second
    ticks: list[tuple[float, float, float]] = field(default_factory=list)
    blocks: list[dict] = field(default_factory=list)
    queue_live: list[int] = field(default_factory=list)   # queue length after each second
    layers_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(SHARE_LAYERS, 0.0))
    #: layer -> handler executions of its message types, profiled blocks
    message_handlings: dict[str, int] = field(default_factory=lambda: dict.fromkeys(SHARE_LAYERS, 0))
    handler_s: float = 0.0
    simulated_s: float = 0.0
    exact: dict[str, int] = field(default_factory=dict)


def _measure(run: Run, load, shape: Shape, timed_s: int, trace: int) -> Measured:
    """Time ``timed_s`` simulated seconds, in blocks of ``shape.block_s``."""
    simulation = run.simulation
    emulator = emulator_of(simulation.system)
    measured = Measured()
    ticks = measured.ticks
    sim_started = simulation.now()
    while len(ticks) < timed_s:
        profiled = bool(trace) and len(measured.blocks) % 2 == 1
        before, sent_before = run.exact(), emulator.sent
        fired_before = simulation.queue.fired_total
        profiler = simulation.profile() if profiled else None
        wall = perf_counter()
        for _ in range(shape.block_s):
            tick, cpu = perf_counter(), process_time()
            load.second()
            ticks.append((tick, perf_counter(), process_time() - cpu))
            measured.queue_live.append(len(simulation.queue))
            if len(ticks) == shape.exact_after_s:
                measured.exact = run.exact()
        wall = perf_counter() - wall
        if profiler is not None:
            profiler.uninstall()
            for definition, (spent, _count) in profiler.by_definition.items():
                measured.layers_s[DEFINITION_LAYER.get(definition, "other")] += spent
            for event_type, (_spent, count) in profiler.by_event_type.items():
                if event_type in MESSAGE_NAME_LAYER:
                    measured.message_handlings[MESSAGE_NAME_LAYER[event_type]] += count
            measured.handler_s += profiler.handler_seconds
        after = run.exact()
        measured.blocks.append({
            "wall": wall, "profiled": profiled,
            "events": after["events"] - before["events"],
            "scheduled": after["scheduled"] - before["scheduled"],
            "fired": simulation.queue.fired_total - fired_before,
            "routed": emulator.sent - sent_before,
        })
    measured.simulated_s = simulation.now() - sim_started
    return measured


def _end_to_end(outcome: Outcome, host: HostSpeed, measured: Measured) -> None:
    ticks = measured.ticks
    edges = [len(ticks) * number // WINDOWS for number in range(WINDOWS + 1)]
    windows, slices = [], []
    for low, high in zip(edges, edges[1:]):
        part = ticks[low:high]
        start, end = part[0][0], part[-1][1]
        windows.append({
            "ops": len(part), "wall": sum(e - s for s, e, _cpu in part),
            "cpu": sum(cpu for _s, _e, cpu in part), "start": start, "end": end,
        })
        slices.append((start, end, [1e3 * (e - s) for s, e, _cpu in part]))
    outcome.set_end_to_end(host, windows, slices)
    events_per_sim_s = sum(b["events"] for b in measured.blocks) / measured.simulated_s
    outcome.reported["events_per_sim_s"] = (events_per_sim_s, "1/s")
    outcome.reported["events_per_cpu_s"] = (
        events_per_sim_s * 1e6 / outcome.metrics["cpu_us_per_op"], "ev/s")


def _per_layer(outcome: Outcome, measured: Measured, shape: Shape) -> None:
    blocks = measured.blocks
    plain = [b for b in blocks if not b["profiled"]]
    profiled = [b for b in blocks if b["profiled"]]
    profiled_wall = sum(b["wall"] for b in profiled)
    total = {key: sum(b[key] for b in blocks) for key in ("events", "scheduled", "fired", "routed")}
    metrics = outcome.metrics
    metrics["simulation.events_total"] = measured.exact["events"]
    metrics["simulation.events_per_sim_s"] = total["events"] / measured.simulated_s
    metrics["simulation.driver_share"] = 1.0 - measured.handler_s / profiled_wall
    for layer in SHARE_LAYERS:
        metrics[f"simulation.share.{layer}"] = measured.layers_s[layer] / profiled_wall
    metrics["simulation.queue.cancel_share"] = 1.0 - total["fired"] / max(1, total["scheduled"])
    metrics["simulation.queue.live_p95"] = percentile(measured.queue_live, 0.95)
    metrics["simulation.emulator.msgs_per_sim_s"] = total["routed"] / measured.simulated_s
    # A message is handled twice: by the sender's EmulatedNetwork and by the
    # component it is delivered to.
    node_seconds = shape.peers * shape.block_s * len(profiled)
    for layer, metric in (("ring", "cats.ring.msgs_per_node_s"), ("fd", "protocols.fd.msgs_per_node_s"),
                          ("cyclon", "protocols.cyclon.msgs_per_node_s")):
        metrics[metric] = measured.message_handlings[layer] / 2 / node_seconds
    metrics["bench.trace_overhead_share"] = 1.0 - (
        median([shape.block_s / b["wall"] for b in profiled])
        / median([shape.block_s / b["wall"] for b in plain]))
    # One operation is one simulated second; those of the unprofiled blocks.
    plain_ms = [
        1e3 * (end - start)
        for number, (start, end, _cpu) in enumerate(measured.ticks)
        if not blocks[number // shape.block_s]["profiled"]
    ]
    metrics["client.op_ms_p50"] = median(plain_ms)
    metrics["client.op_ms_p95"] = percentile(plain_ms, 0.95)
    outcome.samples["blocks profiled"] = len(profiled)
    outcome.trace_document = {
        "profile": "Simulation.profile() over the profiled blocks, seconds per layer",
        "wall_s": profiled_wall, "handler_s": measured.handler_s, "layers_s": measured.layers_s,
    }


def run(name: str, seed: int, seconds: float, trace: int, mini: bool, host: HostSpeed) -> Outcome:
    shape = SHAPES[name][1 if mini else 0]
    peers = shape.peers
    outcome = Outcome(name, seed, trace)
    outcome.notes.append("simulated time; host times are those of the default queue engine and run loop")
    rss_before = current_rss_kb()
    run_ = Run(seed)
    simulation, stats = run_.simulation, run_.simulator.stats
    checkpoint = min(CHECKPOINT_PEERS, peers)
    run_.boot(peers, checkpoint)
    rss_after_boot = current_rss_kb()
    simulation.run(until=simulation.now() + SETTLE)
    outcome.setup_s = host.setup_s()

    load = Steady(run_, peers) if name == "sim_steady" else Churn(run_)
    for _ in range(shape.warmup_s):
        load.second()
    measured = _measure(run_, load, shape, shape.timed_s(seconds, mini), trace)
    stream: list = []
    if trace:
        stream, stop_recording = probes.record_queue_stream(simulation.queue, simulation.clock)
        for _ in range(shape.block_s):
            load.second()
        stop_recording()
    simulation.run(until=simulation.now() + DRAIN)

    outcome.attempted, completed = run_.issued_and_completed()
    outcome.failed = outcome.attempted - completed
    outcome.check(outcome.failed == 0, f"{outcome.failed} operations never completed")
    outcome.check(run_.simulator.alive_count >= 0.9 * peers, "the ring lost more than a tenth of its peers")
    # One seed gives these to the last digit: --selftest runs each simulator
    # workload twice, the full run compares its rounds, and ``compare`` the two sets.
    outcome.exact = {f"after_{shape.exact_after_s}_s.{key}": value for key, value in measured.exact.items()}
    check_start = perf_counter()
    verdict = check_history(run_.simulator.history)
    check_s = perf_counter() - check_start
    outcome.check(verdict.linearizable, f"history is not linearizable: {verdict.reason}")
    retries = sum(
        host_.definition.node.definition.abd.definition.retries
        for host_ in run_.simulator.hosts.values())
    simulation.shutdown()

    # Same inputs, same prefix: boot the first peers again and compare exact counters.
    replay = Run(seed)
    replay.boot(checkpoint, checkpoint)
    replay.simulation.shutdown()
    outcome.check(
        replay.at_checkpoint == run_.at_checkpoint,
        f"replaying the first {checkpoint} joins gave "
        f"{replay.at_checkpoint}, the run had {run_.at_checkpoint}",
    )

    if not trace:
        _end_to_end(outcome, host, measured)
        outcome.reported["consistency_check_s"] = (check_s, "s")
        return outcome
    _per_layer(outcome, measured, shape)
    metrics = outcome.metrics
    metrics.update(probes.replay_queue_stream(stream))
    metrics.update(probes.dispatch_probe())
    wall = run_.boot_wall
    quarter = max(1, min(32, peers // 4))
    metrics["core.boot.ms_per_peer_first32"] = 1e3 * wall[quarter - 1] / quarter
    metrics["core.boot.ms_per_peer_last32"] = 1e3 * (wall[-1] - wall[-quarter - 1]) / quarter
    metrics["core.boot.kb_per_peer"] = (rss_after_boot - rss_before) / peers
    metrics["consistency.check_s"] = check_s
    if name == "sim_steady":
        metrics["cats.ring.lookup_hops_mean"] = sum(stats.lookup_hops) / max(1, len(stats.lookup_hops))
    else:
        metrics["core.churn.join_host_ms_p50"] = median(load.join_ms)
        metrics["core.churn.fail_host_ms_p50"] = median(load.fail_ms)
        metrics["cats.abd.retries_per_op"] = retries / max(1, completed)
        metrics.update(unshaped_churn(seed, shape))
    return outcome
