"""A finished store frees its payload copy without the cyclic GC.

``store`` reads the source buffer into ``BulkSendOp.data`` once; chunks
are sliced from it and retransmissions work from the packets the
window saved (the ones first sent, kept by reference).  The op sits in a reference cycle with its ``done`` event (the
event's value is the op), so whatever it still holds when it finishes
lives until the cyclic collector runs.  Dropping ``data`` at the final
ack frees the copy immediately; this runs with the collector off under
``tracemalloc`` to show it.
"""

import gc
import tracemalloc

from repro.am import attach_spam
from repro.hardware import build_sp_machine
from repro.sim import Simulator

NBYTES = 256 * 1024


def _bytes_held_after_store():
    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, am1 = attach_spam(machine)
    mem0, mem1 = machine.node(0).memory, machine.node(1).memory
    src = mem0.alloc(NBYTES)
    mem0.write(src, bytes(i % 251 for i in range(NBYTES)))
    dst = mem1.alloc(NBYTES)
    mem1.write(dst, bytes(NBYTES))  # materialize the target up front
    ops = []

    def mover():
        ops.append((yield from am0.store(1, src, dst, NBYTES)))

    def server():
        while not sender.finished:
            yield from am1._wait_progress()

    sender = sim.spawn(mover(), name="mover")
    procs = [sender, sim.spawn(server(), name="server")]
    before = tracemalloc.get_traced_memory()[0]
    sim.run_until_processes_done(procs, limit=1e8)
    assert mem1.read(dst, NBYTES) == mem0.read(src, NBYTES)
    op = ops.pop()
    assert op.done.triggered and op.data is None
    del op
    return tracemalloc.get_traced_memory()[0] - before


def test_finished_store_frees_its_payload_copy():
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        held = _bytes_held_after_store()
    finally:
        tracemalloc.stop()
        gc.enable()
    # with the copy still referenced this is >= NBYTES
    assert held < NBYTES // 4, held
