"""Table 4: machine comparison across the four platforms.

Measures, on each simulated machine, the three quantities the paper
tabulates: per-message send overhead, one-word round-trip latency, and
bulk bandwidth — using the same AM API everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.am import attach_am
from repro.bench.bandwidth import measure_bandwidth
from repro.bench.pingpong import am_roundtrip
from repro.hardware.machine import build_machine
from repro.hardware.params import machine_params
from repro.sim import Simulator

#: the four rows of Table 4, with the paper's values for comparison
TABLE4_PAPER = {
    "cm5": {"label": "TMC CM-5", "cpu": "33 MHz Sparc-2",
            "overhead": 3.0, "rtt": 12.0, "bw": 10.0},
    "meiko": {"label": "Meiko CS-2", "cpu": "40 MHz Sparc-20(mod)",
              "overhead": 11.0, "rtt": 25.0, "bw": 39.0},
    "unet": {"label": "U-Net ATM cluster", "cpu": "50/60 MHz Sparc-20",
             "overhead": 3.5, "rtt": 66.0, "bw": 14.0},
    "sp-thin": {"label": "IBM SP", "cpu": "66 MHz RS6000 (P2)",
                "overhead": 3.7, "rtt": 51.0, "bw": 34.0},
}


@dataclass
class MachineRow:
    name: str
    label: str
    overhead_us: float
    rtt_us: float
    bandwidth_mbs: float


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


def table4_rows() -> List[MachineRow]:
    """Measure every Table 4 machine."""
    rows = []
    for name, paper in TABLE4_PAPER.items():
        rows.append(MachineRow(
            name=name,
            label=paper["label"],
            overhead_us=measure_send_overhead(name),
            rtt_us=am_roundtrip(1, 60, name),
            bandwidth_mbs=measure_bulk_bandwidth(name),
        ))
    return rows
