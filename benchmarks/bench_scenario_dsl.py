"""The scenario DSL engine (paper section 4.4) and the discrete-event core.

Measures the simulation machinery itself, independent of CATS: how fast
the scenario interpreter + event queue + virtual clock can generate and
dispatch scheduled operations (the upper bound on any simulation's event
rate, and the fixed cost inside every Table 1 cell).
"""

from __future__ import annotations

import pytest

from repro.simulation import (
    EventQueue,
    Scenario,
    Simulation,
    StochasticProcess,
    exponential,
    key_uniform,
)

OPS = 20_000


def test_scenario_generation_and_dispatch(benchmark):
    def run():
        simulation = Simulation(seed=5)
        events = []
        process = (
            StochasticProcess("load")
            .event_inter_arrival_time(exponential(0.01))
            .raise_events(OPS, lambda a, b: events.append((a, b)), key_uniform(16), key_uniform(14))
        )
        Scenario().start(process).simulate(simulation, lambda e: None)
        simulation.run()
        assert len(events) == OPS
        return simulation

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    benchmark.extra_info["ops_per_second"] = OPS / benchmark.stats.stats.mean


def test_event_queue_throughput(benchmark):
    """Raw schedule+pop rate of the discrete-event queue."""

    def churn():
        q = EventQueue()
        for n in range(10_000):
            q.schedule(float(n % 97), lambda: None)
        while q.pop_batch() is not None:
            pass

    benchmark(churn)


def test_virtual_timer_cascade(benchmark):
    """10k timers firing through SimTimer components under virtual time."""
    from dataclasses import dataclass

    from repro import ComponentDefinition, handles
    from repro.simulation import SimTimer
    from repro.timer import ScheduleTimeout, Timeout, Timer, new_timeout_id

    @dataclass(frozen=True)
    class Tick(Timeout):
        pass

    class Chain(ComponentDefinition):
        """Each timeout schedules the next: a serial cascade of 10k firings."""

        def __init__(self) -> None:
            super().__init__()
            self.timer = self.requires(Timer)
            self.remaining = 0
            self.subscribe(self.on_tick, self.timer)

        @handles(Tick)
        def on_tick(self, _tick: Tick) -> None:
            if self.remaining > 0:
                self.remaining -= 1
                self.trigger(ScheduleTimeout(0.001, Tick(new_timeout_id())), self.timer)

    def cascade():
        simulation = Simulation(seed=1)
        built = {}

        class Main(ComponentDefinition):
            def __init__(self) -> None:
                super().__init__()
                timer = self.create(SimTimer)
                built["chain"] = self.create(Chain)
                self.connect(timer.provided(Timer), built["chain"].required(Timer))

        simulation.bootstrap(Main)
        chain = built["chain"].definition
        chain.remaining = 10_000
        chain.trigger(ScheduleTimeout(0.001, Tick(new_timeout_id())), chain.timer)
        simulation.run()
        assert chain.remaining == 0

    benchmark.pedantic(cascade, iterations=1, rounds=3)
