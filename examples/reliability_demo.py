#!/usr/bin/env python3
"""Watching §2.2's flow control recover from injected packet loss.

A seeded ``FaultPlan`` drops a configurable fraction of data packets in
the switch (``install_faults``, the one fault path the soak and the
campaigns use too); the sliding-window protocol (sequence numbers,
NACK-triggered go-back-N, keep-alive probes for tail losses) must still
deliver a large store intact — and the protocol statistics show exactly
how it did it.

Run:  python examples/reliability_demo.py  [drop_percent]
"""

import sys

from repro.am import attach_spam
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.packet import PacketKind
from repro.sim import Simulator


def main() -> None:
    percent = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(machine)
    # the same seed drops the same packets on every run
    inj = install_faults(machine, FaultPlan(seed=1, rules=(
        FaultRule("drop", rate=percent / 100, packet_kinds=frozenset(
            {PacketKind.STORE_DATA, PacketKind.GET_DATA})),)))

    N = 256 * 1024
    pattern = bytes((7 * i) % 256 for i in range(N))
    src = machine.node(0).memory.alloc(N)
    dst = machine.node(1).memory.alloc(N)
    machine.node(0).memory.write(src, pattern)
    flag = [0]

    def sender():
        t0 = sim.now
        yield from am0.store(1, src, dst, N)
        bw = N / (sim.now - t0)
        print(f"256 KB store with ~{percent}% loss: {bw:6.2f} MB/s "
              "(lossless: ~33.7)")
        flag[0] = 1

    def receiver():
        while not flag[0]:
            yield from am1._wait_progress()

    p = sim.spawn(sender(), name="store")
    q = sim.spawn(receiver(), name="recv")
    sim.run_until_processes_done([p, q], limit=1e9)

    ok = machine.node(1).memory.read(dst, N) == pattern
    print(f"data intact after recovery: {ok}")
    assert ok
    print(f"\npackets dropped by the fault injector : {len(inj.injected)}")
    s0, s1 = am0.stats, am1.stats
    print(f"go-back-N retransmissions (sender)     : "
          f"{s0.get('retransmissions')}")
    print(f"NACKs issued (receiver)                : {s1.get('nacks_sent')} "
          f"(+{s1.get('nacks_suppressed')} suppressed)")
    print(f"keep-alive probes (tail-loss recovery) : "
          f"{s0.get('keepalives_sent')}")
    print(f"duplicates discarded at the receiver   : "
          f"{s1.get('duplicates_dropped')}")


if __name__ == "__main__":
    main()
