"""Golden event-order digests for the small-message paths.

``request_M`` / ``reply_M``, the deferred reply and the idle wait are
staged through host-side shortcuts (cached charges, an open-coded
sequence/ack stamp, the handler driven from the drain loop, one reused
``Timeout`` per endpoint) that must leave the simulated machine
untouched.  These pins hash every executed event's ``(time, seq,
callback)`` and compare with digests recorded before those shortcuts
existed:

* a ping-pong cycling through ``request_1..4`` / ``reply_1..4``;
* bursts of eight requests to a node that keeps storing a chunk back
  through an eight-entry send FIFO, so replies find it full, are
  deferred, and leave from the end-of-poll duties;
* bursts of four requests under a seeded drop / duplicate / reorder /
  corrupt plan, which reaches NACKs, keep-alives and go-back-N.
"""

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.check import EventDigest
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.params import machine_params, with_overrides
from repro.sim import Simulator
from tests.timeline import Timeline

#: recorded at the commit before the small-message fast paths; the
#: lossless two re-pinned when bulk host charges were fused and packets
#: delivered in one event (before: 9dfb16b3..., 30e6e906...), the
#: deferred one again when receive-FIFO slots were stamped (before:
#: 00d0283a...), the lossy one when every packet was accepted at
#: injection and settled lazily (before: 4922efa7...), while the
#: timelines did not move
PINGPONG_DIGEST = "579295998db9e4bbc9fa16646e5a7ce1"
DEFERRED_DIGEST = "1fa992223c2c53d00b7893ff338a3c76"
LOSSY_DIGEST = "684bfe3d42cbdb02eea62595651fd6f5"
#: what the machine did (``tests.timeline``), recorded before bulk host
#: charges were fused and packets delivered in one event
PINGPONG_TIMELINE = "2ee0dd99c4d1e1eeb25acf805b65674c"
DEFERRED_TIMELINE = "f9e5481626d72d55ced83b10084b35a1"
LOSSY_TIMELINE = "9156ed3e75e493caf40a88805033df2a"

#: drop, duplicate, reorder and corrupt, seeded: every run replays exactly
LOSSY_PLAN = FaultPlan(seed=5, rules=(
    FaultRule(kind="drop", rate=0.02),
    FaultRule(kind="duplicate", rate=0.02),
    FaultRule(kind="reorder", rate=0.02, delay_us=40.0),
    FaultRule(kind="corrupt", rate=0.01),
))

MESSAGES = 160

def _run(burst, params=None, plan=None, store_chunks=0):
    """``MESSAGES`` requests from node 0 to node 1, ``burst`` at a time,
    each waiting for its burst's replies, while node 1 keeps storing
    ``store_chunks`` chunks to node 0; returns the event digest, the
    timeline digest and the endpoints' summed counters."""
    with Timeline() as timeline:
        return _run_traced(timeline, burst, params, plan, store_chunks)


def _run_traced(timeline, burst, params, plan, store_chunks):
    sim = Simulator()
    digest = sim.check = EventDigest()
    machine = build_sp_machine(sim, 2, params)
    timeline.watch(machine)
    am0, am1 = attach_spam(machine)
    if plan is not None:
        install_faults(machine, plan)
    nbytes = store_chunks * CHUNK_BYTES
    data = bytes(i % 251 for i in range(nbytes))
    if nbytes:
        src = machine.node(1).memory.alloc(nbytes)
        dst = machine.node(0).memory.alloc(nbytes)
        machine.node(1).memory.write(src, data)
    got = []

    def on_reply(token, *words):
        got.append(words)

    def on_request(token, *words):
        reply = getattr(token, f"reply_{len(words)}")
        yield from reply(on_reply, *(w + 1 for w in words))

    def client():
        for i in range(MESSAGES):
            words = tuple(range(i, i + 1 + i % 4))
            request = getattr(am0, f"request_{len(words)}")
            yield from request(1, on_request, *words)
            if (i + 1) % burst == 0:
                while len(got) < i + 1:
                    yield from am0._wait_progress()
        while len(got) < MESSAGES:
            yield from am0._wait_progress()
        replied.append(True)
        # the server may still be storing: its chunks need our acks
        while not receiver.finished:
            yield from am0._wait_progress()

    def server():
        while not replied:
            if nbytes:
                # serves requests from inside the store's wait
                yield from am1.store(0, src, dst, nbytes)
            else:
                yield from am1._wait_progress()

    replied = []
    receiver = sim.spawn(server(), name="server")
    procs = [sim.spawn(client(), name="client"), receiver]
    sim.run_until_processes_done(procs, limit=1e8)
    want = [tuple(range(i + 1, i + 2 + i % 4)) for i in range(MESSAGES)]
    # a deferred reply leaves after replies its handler ran before
    assert sorted(got) == want
    if nbytes:
        assert machine.node(0).memory.read(dst, nbytes) == data
    counters = {}
    for am in (am0, am1):
        for key, value in am.stats.snapshot().items():
            name = key.rsplit(".", 1)[-1]
            counters[name] = counters.get(name, 0) + value
    return digest.hexdigest(), timeline.hexdigest(), counters


def test_pingpong_digest_is_pinned():
    digest, timeline, counters = _run(burst=1)
    assert counters["handlers_run"] == 2 * MESSAGES
    assert counters.get("retransmissions", 0) == 0
    assert timeline == PINGPONG_TIMELINE
    assert digest == PINGPONG_DIGEST


def test_deferred_reply_digest_is_pinned():
    small_fifo = with_overrides(machine_params("sp-thin"), send_fifo_entries=8)
    digest, timeline, counters = _run(burst=8, params=small_fifo,
                                      store_chunks=1)
    assert counters["replies_deferred"] > 0
    assert counters["replies_sent"] == MESSAGES
    assert timeline == DEFERRED_TIMELINE
    assert digest == DEFERRED_DIGEST


def test_lossy_digest_is_pinned():
    digest, timeline, counters = _run(burst=4, plan=LOSSY_PLAN)
    assert counters.get("retransmissions", 0) > 0
    assert (counters.get("nacks_sent", 0)
            + counters.get("keepalive_nacks_sent", 0)) > 0
    assert timeline == LOSSY_TIMELINE
    assert digest == LOSSY_DIGEST
