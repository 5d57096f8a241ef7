"""A lossless run must never wait on a timer (ROADMAP item 5).

§2.2's keep-alive and NACK exist for loss.  A lossless 2 MB
optimized-MPI ``isend``/``recv`` stream at 16 KB on two thin nodes
still stalls once: the receiver holds fewer acks than the quarter-window
threshold and goes idle, the sender waits on them, and only its
keep-alive (400 µs later) restarts the stream.  The keep-alive's NACK
then makes go-back-N resend packets that were never lost.
"""

import pytest

from repro.am import attach_spam
from repro.hardware import build_sp_machine
from repro.hardware.params import machine_params
from repro.mpi import OPTIMIZED, attach_mpi
from repro.sim import Simulator

TOTAL = 2 << 20
MSG = 16 * 1024


@pytest.fixture(scope="module")
def stream():
    sim = Simulator()
    m = build_sp_machine(sim, 2, machine_params("sp-thin"))
    am0, am1 = attach_spam(m)
    mpi0, mpi1 = attach_mpi(m, OPTIMIZED)
    mem0, mem1 = m.node(0).memory, m.node(1).memory
    src, dst = mem0.alloc(TOTAL), mem1.alloc(TOTAL)
    data = bytes(i % 251 for i in range(TOTAL))
    mem0.write(src, data)

    def sender():
        reqs = []
        for i in range(TOTAL // MSG):
            reqs.append((yield from mpi0.isend((src + i * MSG, MSG), 1,
                                               tag=i)))
        yield from mpi0.waitall(reqs)

    def receiver():
        for i in range(TOTAL // MSG):
            yield from mpi1.recv(MSG, 0, tag=i, addr=dst + i * MSG)

    sim.run_until_processes_done(
        [sim.spawn(sender(), name="send"), sim.spawn(receiver(), name="recv")],
        limit=1e9)
    return data, mem1.read(dst, TOTAL), am0, am1


def test_stream_lands_exactly(stream):
    data, landed, _, _ = stream
    assert landed == data


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5: an idle receiver holds sub-threshold acks, so the "
    "sender's keep-alive restarts the stream and its NACK triggers a "
    "go-back-N of packets that were never lost"))
def test_lossless_stream_needs_no_keepalive_or_retransmission(stream):
    _, _, am0, am1 = stream
    assert am0.stats.get("keepalives_sent") == 0
    assert am0.stats.get("retransmissions") == 0
