"""The raw (flow-control-free) message path — the paper's 47 us baseline.

§2.3: "This round trip latency compares well with a raw message (no data
or sequence number) ping-pong latency of 47 us.  The additional overhead
of 4 us is due to the cost of the cache flushes and the flow control
bookkeeping."

The raw path stages a bare header into the send FIFO, arms it, and on the
receive side merely detects and consumes the packet — no sequence numbers,
no retransmission copies, no per-message flow-control state, and only the
minimal single-line cache flush.
"""

from __future__ import annotations

from repro.hardware.cache import flush_cost
from repro.hardware.machine import Machine
from repro.hardware.packet import Packet, PacketKind
from repro.sim.primitives import WaitEvent

#: host cost of building a raw FIFO entry (header construction and the
#: FIFO-pointer bookkeeping survive even without sequence numbers)
RAW_BUILD = 2.17
#: host cost of detecting + consuming a raw packet
RAW_CONSUME = 2.67


def _raw_send(node, dst: int):
    pkt = Packet(src=node.id, dst=dst, kind=PacketKind.RAW)
    if node.adapter.obs is not None:
        node.adapter.obs.begin_message(pkt, node.sim.now)
    yield from node.compute(
        RAW_BUILD + flush_cost(pkt.wire_bytes, node.host) + node.host.mc_pio
    )
    node.adapter.host_stage(pkt)
    node.adapter.host_arm()


def _raw_recv(node):
    adapter = node.adapter
    while adapter.host_recv_available() == 0:
        yield WaitEvent(adapter.arrival_event())
    yield from node.compute(RAW_CONSUME)
    pkt = adapter.host_recv_consume()
    if adapter.host_recv_should_pop():
        yield from node.compute(node.host.mc_pio)
        adapter.host_recv_pop_batch()
    return pkt


def raw_pingpong_roundtrip(machine: Machine, iterations: int = 100) -> float:
    """Measure the raw one-word round-trip time on an SP machine.

    Runs ``iterations`` ping-pongs between nodes 0 and 1 and returns the
    average round trip in microseconds.
    """
    if not machine.is_sp:
        raise ValueError("raw path exists only on the SP")
    if machine.nprocs < 2:
        raise ValueError("need two nodes")
    sim = machine.sim
    n0, n1 = machine.node(0), machine.node(1)
    t0 = sim.now

    def pinger():
        for _ in range(iterations):
            yield from _raw_send(n0, 1)
            yield from _raw_recv(n0)

    def ponger():
        for _ in range(iterations):
            yield from _raw_recv(n1)
            yield from _raw_send(n1, 0)

    # its own two spawns, not repro.bench's run_programs: this loop is the
    # raw baseline perflab times, and the am layer sits below repro.bench
    p = sim.spawn(pinger(), name="raw-ping")
    q = sim.spawn(ponger(), name="raw-pong")
    sim.run_until_processes_done([p, q])
    return (sim.now - t0) / iterations
