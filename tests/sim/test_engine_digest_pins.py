"""Golden event-order digests for the engine's two entry points.

``step()`` and the run loop are separate entry points to one queue; both
must retire the same events at the same simulated times in the same
order.  These pins hash every executed event's ``(time, seq, callback)``
through :class:`repro.check.EventDigest`: three AM workloads (one-word
ping-pong, blocking store + get, 4-rank ``store_async`` all-to-all)
driven one ``step()`` at a time, with their exact final clocks, and a
lossy soak — timers, tombstones, go-back-N — driven at full speed.

Each also pins its timeline (``tests.timeline``): what the machine did,
which must hold when a change re-pins the event digests.  The event
digests were re-pinned when bulk host charges were fused and packets
delivered in one event; before, ping-pong e90cc310..., bulk 12bc4095...,
all-to-all e9f1f0ac..., soak ca79b018... at 6104 events.  They were
re-pinned again when receive-FIFO slots were stamped; before, bulk
a249079e..., all-to-all 2e91f0b5..., soak 71808adb... at 5659 events
(ping-pong did not move).  The soak was re-pinned when every packet was
accepted at injection and settled lazily; before, 38dd2ad7... at 5655
events.
"""

from repro.am import attach_am
from repro.check import EventDigest
from repro.faults import run_soak
from repro.hardware.machine import build_machine
from repro.sim import Simulator
from tests.timeline import Timeline


def _machine(sim, nodes):
    machine = build_machine(sim, nodes, "sp-thin")
    attach_am(machine)
    return machine, [machine.node(i).am for i in range(nodes)]


def _build_pingpong(sim, iterations):
    machine, (am0, am1) = _machine(sim, 2)
    got, served = [0], [0]

    def reply_handler(token, x):
        got[0] += 1

    def request_handler(token, x):
        served[0] += 1
        yield from token.reply_1(reply_handler, x)

    def pinger():
        for i in range(iterations):
            before = got[0]
            yield from am0.request_1(1, request_handler, i & 0xFFFF)
            while got[0] == before:
                yield from am0._wait_progress()

    def ponger():
        while served[0] < iterations:
            yield from am1._wait_progress()

    p = sim.spawn(pinger(), name="ping")
    sim.spawn(ponger(), name="pong")
    return machine, [p]


def _build_bulk(sim, nbytes):
    machine, (am0, am1) = _machine(sim, 2)
    mem0, mem1 = machine.node(0).memory, machine.node(1).memory
    src, dst, back = mem0.alloc(nbytes), mem1.alloc(nbytes), mem0.alloc(nbytes)
    mem0.write(src, bytes(i % 251 for i in range(nbytes)))
    done = [False]

    def h_bulk_done(token, x):
        done[0] = True

    def mover():
        yield from am0.store(1, src, dst, nbytes)
        yield from am0.get(1, dst, back, nbytes)
        yield from am0.request_1(1, h_bulk_done, 0)
        assert mem0.read(back, nbytes) == mem0.read(src, nbytes)

    def server():
        while not done[0]:
            yield from am1._wait_progress()

    p = sim.spawn(mover(), name="bulk")
    sim.spawn(server(), name="bulk-server")
    return machine, [p]


def _build_alltoall(sim, nodes, nbytes):
    machine, ams = _machine(sim, nodes)
    srcs = [machine.node(i).memory.alloc(nbytes) for i in range(nodes)]
    dsts = [[machine.node(i).memory.alloc(nbytes) for _ in range(nodes)]
            for i in range(nodes)]
    done_from = [set() for _ in range(nodes)]

    def h_a2a_done(token, src):
        done_from[token.am.node.id].add(src)

    def rank(r):
        am = ams[r]
        ops = []
        for off in range(1, nodes):
            peer = (r + off) % nodes
            ops.append((yield from am.store_async(
                peer, srcs[r], dsts[peer][r], nbytes)))
        for op in ops:
            yield from am.wait_op(op)
        # my stores are acked, so the done marker arrives after them
        for off in range(1, nodes):
            yield from am.request_1((r + off) % nodes, h_a2a_done, r)
        while len(done_from[r]) < nodes - 1:
            yield from am._wait_progress()

    return machine, [sim.spawn(rank(r), name=f"a2a{r}")
                     for r in range(nodes)]


def _step_digest(build, *sizes):
    """Drive a workload one ``step()`` at a time until its procs finish;
    returns the event digest, the final clock and the timeline digest."""
    with Timeline() as timeline:
        sim = Simulator()
        machine, procs = build(sim, *sizes)
        timeline.watch(machine)
        digest = sim.check = EventDigest()
        while not all(p.finished for p in procs):
            assert sim.step(), "queue drained with processes unfinished"
    return digest.hexdigest(), sim.now, timeline.hexdigest()


def test_pingpong_step_digest_is_pinned():
    assert _step_digest(_build_pingpong, 200) == (
        "282a2a560cdb4dc0aa0f2a5275110e2f", 10040.00000000017,
        "2704c310771a26f5d065fb284bfac177")


def test_bulk_step_digest_is_pinned():
    assert _step_digest(_build_bulk, 32_768) == (
        "b65408375209668dc4f04f878f9c7e35", 2101.580000000017,
        "3fda231ec067359510ccd9569679f982")


def test_alltoall_step_digest_is_pinned():
    assert _step_digest(_build_alltoall, 4, 2_048) == (
        "ab75223a6948a484bd9d4cc55bedf2db", 356.50000000000057,
        "7d66bc809e756337d8bc98a2d51b139e")


def _soak_run():
    """The lossy soak at full speed; run_soak builds its machine inside,
    so its timeline holds the process finish times only."""
    rec = EventDigest()
    with Timeline() as timeline:
        res = run_soak(seed=11, loss=0.01, nodes=3, pingpong=20,
                       compare_clean=False, sim_check=rec)
    return rec, res, timeline.hexdigest()


def test_soak_run_digest_is_pinned():
    rec, res, timeline = _soak_run()
    assert not res.violations
    sim = res.obs.machine.sim
    assert sim.stale_events_skipped > 0
    assert timeline == "d198d07db7000a1f9e0dd5ae30c67516"
    assert (rec.hexdigest(), res.elapsed_us, sim.events_executed) == (
        "84458f603fd48fd0989ee94d236d464a", 55647.45083333338, 4646)
