"""Golden event-order digests for the eager bulk paths.

The receive loop handles STORE_DATA / GET_DATA inline and the sender
stages a chunk in one pass; both are host-side shortcuts that must leave
the simulated machine untouched.  These pins hash every executed event's
``(time, seq, callback)`` for a blocking 3-chunk store + get and four
pipelined ``store_async`` calls, once lossless and once under a seeded
fault plan, and compare with digests recorded before those shortcuts
existed.  The lossy leg is the one that reaches the partial / duplicate /
nack branches the lossless benchmark never does.
"""

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.check import EventDigest
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.sim import Simulator
from tests.timeline import Timeline

#: re-pinned when bulk host charges were fused and packets delivered in
#: one event (before: 952d0ac8..., 79ddbc9f..., recorded at the commit
#: before the flattened bulk receive loop), and again when receive-FIFO
#: slots were stamped (before: 3fb6b87e..., c7226c5f...), and the lossy
#: one when every packet was accepted at injection and settled lazily
#: (before: 9171d8a2...); the timelines did not move
LOSSLESS_DIGEST = "3b3f5f94928c186ead59069ade766a6b"
LOSSY_DIGEST = "3ecaf1bb2e3f9e87938792dfb2116cf6"
#: what the machine did (``tests.timeline``), recorded before bulk host
#: charges were fused and packets delivered in one event
LOSSLESS_TIMELINE = "6dfdea7ffd422c9018fe77b9ff12f461"
LOSSY_TIMELINE = "89e3f5e99fac8ec951c32d036652be67"

#: drop, duplicate, reorder and corrupt, seeded: every run replays exactly
LOSSY_PLAN = FaultPlan(seed=5, rules=(
    FaultRule(kind="drop", rate=0.02),
    FaultRule(kind="duplicate", rate=0.02),
    FaultRule(kind="reorder", rate=0.02, delay_us=40.0),
    FaultRule(kind="corrupt", rate=0.01),
))

def _run(plan=None):
    with Timeline() as timeline:
        return _run_traced(timeline, plan)


def _run_traced(timeline, plan):
    sim = Simulator()
    digest = sim.check = EventDigest()
    machine = build_sp_machine(sim, 2)
    timeline.watch(machine)
    am0, am1 = attach_spam(machine)
    if plan is not None:
        install_faults(machine, plan)
    mem0, mem1 = machine.node(0).memory, machine.node(1).memory
    block = 3 * CHUNK_BYTES
    data = bytes((7 * i + 3) % 251 for i in range(block + 4 * CHUNK_BYTES))
    src = mem0.alloc(len(data))
    mem0.write(src, data)
    dst = mem1.alloc(len(data))
    back = mem0.alloc(block)

    def mover():
        yield from am0.store(1, src, dst, block)
        yield from am0.get(1, dst, back, block)
        ops = []
        for j in range(4):
            off = block + j * CHUNK_BYTES
            ops.append((yield from am0.store_async(
                1, src + off, dst + off, CHUNK_BYTES)))
        for op in ops:
            yield from am0.wait_op(op)

    def server():
        # serve until every chunk is acked: a finished sender has had
        # everything it needs from this node
        while not sender.finished:
            yield from am1._wait_progress()

    sender = sim.spawn(mover(), name="mover")
    procs = [sender, sim.spawn(server(), name="server")]
    sim.run_until_processes_done(procs, limit=1e8)
    assert mem1.read(dst, len(data)) == data
    assert mem0.read(back, block) == data[:block]
    counters = {}
    for am in (am0, am1):
        for key, value in am.stats.snapshot().items():
            name = key.rsplit(".", 1)[-1]
            counters[name] = counters.get(name, 0) + value
    return digest.hexdigest(), timeline.hexdigest(), counters


def test_lossless_bulk_digest_is_pinned():
    digest, timeline, counters = _run()
    assert counters.get("retransmissions", 0) == 0
    assert timeline == LOSSLESS_TIMELINE
    assert digest == LOSSLESS_DIGEST


def test_lossy_bulk_digest_is_pinned():
    digest, timeline, counters = _run(LOSSY_PLAN)
    # the branches the flattened receive loop re-implements
    for name in ("duplicates_dropped", "nacks_sent", "stall_nacks_sent"):
        assert counters.get(name, 0) > 0, name
    assert timeline == LOSSY_TIMELINE
    assert digest == LOSSY_DIGEST
