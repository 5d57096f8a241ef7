"""Interrupt-driven message reception — the §1.1 road not taken.

"Interrupt-driven reception is also available but not used in this
analysis of SP AM."  This module implements it so the choice can be
measured: :func:`compute_interruptible` runs a long computation during
which every packet arrival raises an interrupt that preempts the
computation, pays the (large — AIX signal delivery + context switch)
per-interrupt cost, services the network, and resumes.

The trade the paper's authors made is then visible in the ablation
benchmark: interrupts give prompt remote-request service without
sprinkled ``am_poll`` calls, but each interrupt costs tens of
microseconds of host CPU — under fine-grain traffic the interrupt
overhead swamps the polling it replaced, which is exactly why SP AM
shipped polling-first.
"""

from __future__ import annotations

from repro.sim.primitives import TIMED_OUT, Timeout

#: host cost of one receive interrupt: kernel signal delivery, context
#: switch into the handler and back (AIX 3.x on a Power2)
INTERRUPT_OVERHEAD_US = 55.0


def compute_interruptible(am, us: float):
    """Perform ``us`` microseconds of computation with receive interrupts.

    Every packet arrival during the computation preempts it: the
    interrupt overhead (:data:`INTERRUPT_OVERHEAD_US`) is charged, the network serviced (handlers run),
    and the computation resumes where it left off.  Total elapsed time =
    compute + interrupts + service; the pure compute portion is exactly
    ``us``.

    Returns the number of interrupts taken.
    """
    if us < 0:
        raise ValueError("negative compute time")
    node = am.node
    adapter = am.adapter
    interrupts = 0
    remaining = us
    # float guard: subtracting elapsed times leaves sub-resolution residue
    # (~1e-13 us) that a Timeout cannot advance past
    EPS = 1e-9
    while remaining > EPS:
        if adapter.host_recv_available() > 0:
            # a packet is already pending: take the interrupt now
            interrupts += 1
            yield from node.compute(INTERRUPT_OVERHEAD_US)
            yield from am.poll()
            continue
        started = node.sim.now
        res = yield Timeout(adapter.arrival_event(), remaining)
        remaining -= node.sim.now - started
        if res is not TIMED_OUT and remaining > EPS:
            interrupts += 1
            yield from node.compute(INTERRUPT_OVERHEAD_US)
            yield from am.poll()
    return interrupts


def compute_polled(am, us: float, quantum_us: float = 1000.0):
    """The polling alternative: the same computation with an ``am_poll``
    every ``quantum_us`` of work ("explicit checks can be added using
    am_poll", §1.1).  Returns the number of polls."""
    if us < 0:
        raise ValueError("negative compute time")
    node = am.node
    remaining = us
    polls = 0
    while remaining > 0:
        step = min(quantum_us, remaining)
        yield from node.compute(step)
        remaining -= step
        if remaining > 0:
            yield from am.poll()
            polls += 1
    return polls
