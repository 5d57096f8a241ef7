"""Discrete-event simulation engine.

Everything in this reproduction runs on top of this package: the hardware
models are event-driven callbacks, and node software (Active Messages, MPL,
Split-C, MPI, applications) runs as coroutine *processes* whose ``yield``\\ s
advance a shared simulated clock measured in **microseconds**.

The engine is deliberately small and deterministic: a binary-heap event
queue with FIFO tie-breaking, generator-based processes, and ``Event``
objects for signalling.  Identical inputs produce identical simulated
timelines, which the test suite asserts.

Public surface::

    Simulator       the event loop and clock
    Process         a running coroutine registered with a simulator
    Event           one-shot or reusable signal processes can wait on
    Delay(t)        yield instruction: advance this process's clock by t
    Until(t)        yield instruction: resume at absolute time t
    WaitEvent(ev)   yield instruction: block until ``ev`` fires
"""

from repro.sim.engine import Simulator
from repro.sim.errors import DeadlockError, SimulationError, SimTimeoutError
from repro.sim.primitives import (TIMED_OUT, Delay, Event, Timeout, Until,
                                  WaitEvent)
from repro.sim.process import Process
from repro.sim.stats import Counter, StatRegistry, TimeSeries

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Delay",
    "Until",
    "WaitEvent",
    "Timeout",
    "TIMED_OUT",
    "Counter",
    "TimeSeries",
    "StatRegistry",
    "SimulationError",
    "DeadlockError",
    "SimTimeoutError",
]
