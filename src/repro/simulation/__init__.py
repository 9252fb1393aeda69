"""Deterministic whole-system simulation (paper sections 3 and 4.2-4.4).

The same component code that runs on the production runtime runs here in
virtual time: :class:`Simulation` pairs a FIFO deterministic scheduler with
a discrete-event queue; :class:`SimTimer` and :class:`EmulatedNetwork` are
drop-in providers of the Timer and Network abstractions; the scenario DSL
composes stochastic processes into reproducible experiments.
"""

from .core import QUEUE_SERVICE, Simulation, is_simulated, queue_of
from .distributions import (
    Constant,
    Distribution,
    Exponential,
    KeyUniform,
    Normal,
    Uniform,
    UniformInt,
    constant,
    exponential,
    key_uniform,
    normal,
    uniform,
    uniform_int,
)
from .emulator import EmulatedNetwork, EmulatorCore, emulator_of
from .event_queue import EventQueue, ScheduledEntry, make_event_queue
from .wheel import TimerWheel
from .latency import (
    ConstantLatency,
    LatencyModel,
    NormalLatency,
    PairwiseLatency,
    UniformLatency,
)
from .scenario import Scenario, StochasticProcess
from .sim_timer import SimTimer

__all__ = [
    "Constant",
    "ConstantLatency",
    "Distribution",
    "EmulatedNetwork",
    "EmulatorCore",
    "EventQueue",
    "Exponential",
    "KeyUniform",
    "LatencyModel",
    "Normal",
    "NormalLatency",
    "PairwiseLatency",
    "QUEUE_SERVICE",
    "Scenario",
    "ScheduledEntry",
    "SimTimer",
    "Simulation",
    "StochasticProcess",
    "TimerWheel",
    "Uniform",
    "UniformInt",
    "UniformLatency",
    "constant",
    "emulator_of",
    "exponential",
    "is_simulated",
    "key_uniform",
    "make_event_queue",
    "normal",
    "queue_of",
    "uniform",
    "uniform_int",
]
