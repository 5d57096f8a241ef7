"""Table 4: machine comparison across the four platforms.

Measures, on each simulated machine, two of the three quantities the
paper tabulates — per-message send overhead and bulk bandwidth — using
the same AM API everywhere; the third, the one-word round trip, is
``repro.bench.pingpong.am_roundtrip`` on the same machine.
"""

from __future__ import annotations

from repro.am import attach_am
from repro.bench.bandwidth import measure_bandwidth
from repro.hardware.machine import build_machine
from repro.hardware.params import machine_params
from repro.sim import Simulator


def measure_send_overhead(machine_name: str, iterations: int = 50) -> float:
    """Per-message send overhead: CPU time consumed per one-way message in
    a send stream (LogP's 'o'), excluding polling for replies."""
    sim = Simulator()
    machine = build_machine(sim, 2, machine_name)
    attach_am(machine)
    am0, am1 = machine.node(0).am, machine.node(1).am
    count = [0]

    def sink(token, x):
        count[0] += 1

    t = {}

    def sender():
        t["start"] = sim.now
        for i in range(iterations):
            yield from am0.request_1(1, sink, i)
        t["end"] = sim.now

    def receiver():
        while count[0] < iterations:
            yield from am1._wait_progress()

    p = sim.spawn(sender())
    sim.spawn(receiver())
    sim.run_until_processes_done([p], limit=1e8)
    return (t["end"] - t["start"]) / iterations


def measure_bulk_bandwidth(machine_name: str, nbytes: int = 262144) -> float:
    """One-way bulk bandwidth via a large blocking store."""
    return measure_bandwidth("am_store", nbytes, nbytes,
                             machine_params(machine_name))
