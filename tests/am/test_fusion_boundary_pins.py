"""Pinned scenarios at every boundary of the fused host charges, the
one-event delivery and the stamped receive FIFO.

SPAM's bulk send and receive paths run their host charges as charge
stretches that yield only where another component can observe the
instant; the switch hands every packet to the receiving adapter at
injection, and the adapter settles it there or, when it cannot yet, at
the host's next touch of the receive FIFO, queueing it stamped with the
instant the host may see it, with no event unless a host is blocked on
the arrival event (docs/architecture.md, "Fused host charges and
one-event delivery", "The stamped receive FIFO" and "Acceptance and
settlement").  Each scenario below sits on one sync point or one
precondition.  It pins its timeline (``tests.timeline``), recorded
before the shortcut it exercises existed (the last five while packets
that could not be accepted at injection were handed to the adapter by
an event at their arrival), so the shortcuts must reproduce the machine
exactly; and its event digest, which moves with them.  Each also
asserts that its boundary is really reached:

* the send FIFO fills in the middle of an arm batch (an 8-entry FIFO, a
  3-chunk store): the stretch syncs before its backoff;
* a piggybacked ack advances a send window in the middle of a drain and
  completes a store whose explicit chunk ack was dropped: the drain syncs
  before it applies the ack;
* a receive FIFO near capacity drops packets at arrival, settled lazily,
  exactly where it dropped them before;
* a host pop lands between a packet's injection and its arrival: the
  packet found the receive FIFO full at injection and room at arrival;
* a pending packet is ahead of a packet the receive FIFO has room for:
  the second waits behind the first, and a drain that found the FIFO
  empty syncs, settles and finds it;
* a receive stretch over a backlog ends at a lazy pop;
* a fault plan is planted whose rule never fires: every packet is still
  settled at injection, and the stretch's timeline is the one the
  plan's packets took when they were handed over at their arrival;
* a SPAM host falls asleep after its packet was accepted: the sleep
  queues the packet's landing, and the landing wakes it;
* an MPL receiver blocks in ``wait_for_arrival`` after its packet was
  accepted, and a landing at the stamp wakes it.
"""

from collections import Counter, deque

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.check import EventDigest
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.packet import PacketKind
from repro.hardware.params import machine_params, with_overrides
from repro.mpl import attach_mpl
from repro.sim import Simulator, WaitEvent
from tests.timeline import Timeline

#: scenario -> (event digest, timeline digest); the timelines were
#: recorded before bulk host charges were fused and packets delivered in
#: one event.  The event digests were re-pinned when receive-FIFO slots
#: were stamped (before: send-fifo-full 3dcdd3c9..., ack-mid-drain
#: 636b0547..., rx-drop-at-arrival 38f583ef..., pop-before-arrival
#: 6ff3d02b..., handoff-ahead 1674cc61...), and again when every packet
#: was accepted at injection and settled lazily (before: ack-mid-drain
#: 77df6549..., rx-drop-at-arrival 97379d8c..., pop-before-arrival
#: 539d22c7..., handoff-ahead 6927d325...)
PINS = {
    "send-fifo-full": ("72769215064984eceb4913d9d82ad61a",
                       "a8a33f501997a9dd5b7831f2b7b90cd1"),
    "ack-mid-drain": ("352788ed0ddc29fa42cfc39cec4b0126",
                      "8db2f822eaa23523c9cc9a78ab7c8669"),
    "rx-drop-at-arrival": ("3db2a16554ee4b98df813d36e5e74fa1",
                           "189a3f1a18182408876035b2a97be5b6"),
    "pop-before-arrival": ("038c50bff5fa800c4a6d4802165c3774",
                           "cbf16d757e0642cbd230ea6009e8d4d0"),
    "handoff-ahead": ("b89cdbab96bd8d9ea99855063096f186",
                      "900041d6125707ac6f41f2ae4fc8666d"),
}
#: the stamped-FIFO scenarios (event digest, timeline digest); the
#: timelines were recorded before receive-FIFO slots were stamped, with
#: the event digests stretch-ends-at-pop a1bfdfac..., handoff-in-stretch
#: 5178ff02..., asleep-after-accept 7d5a1dae..., and mpl-wait-at-stamp the
#: same as now: a landing keeps its packet's place in the event order.
#: handoff-in-stretch was re-pinned (before: 54ab7517...) when an
#: injector that acts on no packet stopped diverting packets
STAMP_PINS = {
    "stretch-ends-at-pop": ("dd81dc4c445ff7353082b258d41b7232",
                            "53b638896e490aa6d63287b1435900e6"),
    "handoff-in-stretch": ("ba1218704617f20381f04767a392d7c9",
                           "1f0cbb48838ab2af9ff6e73c62c9bb54"),
    "asleep-after-accept": ("a2a2c827e34916578c425592ac7788bc",
                       "3cba5808bbd0b20e4eb179895a89037a"),
    "mpl-wait-at-stamp": ("76a4929ab00e29cfdf452d6f6f9d4d3b",
                          "3c899ca68871dbbc99f30ca17e93cdb7"),
}


def _params(**adapter):
    return with_overrides(machine_params("sp-thin"), **adapter)


class _CallCounts(EventDigest):
    """An event digest that also counts executed events by callback, and
    an adapter's by callback and node."""

    __slots__ = ("calls", "by_node")

    def __init__(self):
        super().__init__()
        self.calls = Counter()
        self.by_node = Counter()

    def on_execute(self, entry):
        super().on_execute(entry)
        fn = entry[2]
        name = getattr(fn, "__qualname__", type(fn).__name__)
        self.calls[name] += 1
        nid = getattr(getattr(fn, "__self__", None), "node_id", None)
        if nid is not None:
            self.by_node[name, nid] += 1


class _FillTap:
    """A send FIFO's ``check`` hook: counts stages that fill it."""

    def __init__(self):
        self.filled = 0

    def on_stage(self, fifo):
        if fifo.occupied >= fifo.entries:
            self.filled += 1

    def on_arm(self, fifo, n):
        pass

    def on_take(self, fifo):
        pass


class _RxTap:
    """A receive FIFO's ``check`` hook, chained in front of the one that
    was there: logs each consume as ``(events executed, clock, stamp,
    settled at, slots left)`` and each pop as ``"pop"``; the server adds
    ``"wait"`` before each of its waits."""

    def __init__(self, sim, inner):
        self._sim = sim
        self._inner = inner
        #: (stamp, settled at) of each queued slot
        self._queued = deque()
        self.log = []

    def on_reserve(self, fifo):
        self._inner.on_reserve(fifo)

    def on_deliver(self, fifo):
        self._queued.append((fifo.slots[-1][0], self._sim.now))
        self._inner.on_deliver(fifo)

    def on_consume(self, fifo):
        stamp, settled = self._queued.popleft()
        sim = self._sim
        self.log.append((sim.events_executed, sim.now, stamp, settled,
                         len(fifo.slots)))
        self._inner.on_consume(fifo)

    def on_pop(self, fifo, freed):
        self.log.append("pop")
        self._inner.on_pop(fifo, freed)


def _consumes(log):
    """Pairs of consecutive log entries that are both consumes: the
    second followed the first in the same drain, with no pop between."""
    return [(a, b) for a, b in zip(log, log[1:])
            if isinstance(a, tuple) and isinstance(b, tuple)]


def _stretch_pops(log):
    """Pops right after two consumes that ran in one event: a receive
    stretch that ended at the pop."""
    return sum(1 for a, b, pop in zip(log, log[1:], log[2:])
               if pop == "pop" and isinstance(a, tuple)
               and isinstance(b, tuple) and a[0] == b[0])


def _found_after_sync(log):
    """Consumes, in the drain of the consume before them, of a packet
    settled after it, when that consume had left no slot queued: the
    stretch saw nothing visible at its local clock, synced, and found the
    packet."""
    return sum(1 for a, b in _consumes(log)
               if a[4] == 0 and b[3] > a[1])


def _watch_injections(machine):
    """Classify each injection by its destination's state at that
    instant: receive FIFO full, or room but a pending packet ahead of
    it; and count the packets each destination settles lazily, after
    injection, as ``"settled"``."""
    seen = Counter()
    switch = machine.switch
    inject = switch.inject

    def watched(packet, wire_exit_time):
        adapter = machine.node(packet.dst).adapter
        rf = adapter.recv_fifo
        if rf.occupied >= rf.capacity:
            seen["full"] += 1
        elif adapter.pending:
            seen["behind_pending"] += 1
        inject(packet, wire_exit_time)

    for node in machine.nodes:
        adapter = node.adapter

        def settle(until, adapter=adapter, settle=adapter.settle):
            before = len(adapter.pending)
            settle(until)
            seen["settled"] += before - len(adapter.pending)

        adapter.settle = settle
    switch.inject = watched
    return seen


def _run(params=None, plan=None, store_chunks=3, get_chunks=0,
         late_us=0.0, watch=True):
    """Node 0 runs ``store_async`` of ``store_chunks`` chunks to node 1,
    then a blocking ``get`` of ``get_chunks`` chunks back, then waits for
    the store.  A marker process finishes when ``store_async`` returns, a
    watcher when the store's event fires.  Node 1 computes for
    ``late_us``, then serves until node 0 is done.  With ``watch``, the
    run's boundaries are counted too."""
    with Timeline() as timeline:
        sim = Simulator()
        digest = sim.check = _CallCounts()
        machine = build_sp_machine(sim, 2, params)
        timeline.watch(machine)
        am0, am1 = attach_spam(machine)
        injected = []
        if plan is not None:
            injected = install_faults(machine, plan).injected
        fill = _FillTap()
        seen = Counter()
        rf1 = machine.node(1).adapter.recv_fifo
        rx = rf1.check = _RxTap(sim, rf1.check)
        sleeps = Counter()
        if watch:
            machine.node(0).adapter.send_fifo.check = fill
            seen = _watch_injections(machine)
        mem0, mem1 = machine.node(0).memory, machine.node(1).memory
        nstore = store_chunks * CHUNK_BYTES
        nget = get_chunks * CHUNK_BYTES
        data = bytes((11 * i + 5) % 251 for i in range(nstore + nget))
        src = mem0.alloc(nstore)
        mem0.write(src, data[:nstore])
        dst = mem1.alloc(nstore + nget)
        mem1.write(dst + nstore, data[nstore:])
        back = mem0.alloc(max(nget, 1))

        def mover():
            op = yield from am0.store_async(1, src, dst, nstore)
            # the host's own timeline: when store_async returned, and when
            # the store's event fired (the watcher only waits: one process
            # polls each endpoint)
            sim.spawn(marker(), name="store-returned")
            sim.spawn(watcher(op), name="watcher")
            if nget:
                yield from am0.get(1, dst + nstore, back, nget)
            yield from am0.wait_op(op)

        def marker():
            yield from ()

        def watcher(op):
            yield WaitEvent(op.done)

        def server():
            if late_us:
                yield from machine.node(1).compute(late_us)
            by_node = digest.by_node
            a1 = machine.node(1).adapter
            while not sender.finished:
                slots = rf1.slots
                # nothing visible, a packet already accepted, and no
                # landing queued for it
                asleep = (slots and slots[0][0] > sim.now
                          and not a1._landing)
                lands = by_node["TB2Adapter._land", 1]
                rx.log.append("wait")
                yield from am1._wait_progress()
                if asleep and by_node["TB2Adapter._land", 1] > lands:
                    sleeps["at_stamp"] += 1

        sender = sim.spawn(mover(), name="mover")
        procs = [sender, sim.spawn(server(), name="server")]
        sim.run_until_processes_done(procs, limit=1e8)
        assert mem1.read(dst, nstore) == data[:nstore]
        if nget:
            assert mem0.read(back, nget) == data[nstore:]
        counters = Counter()
        for node in machine.nodes:
            for reg in (node.am.stats, node.adapter.stats):
                for key, value in reg.snapshot().items():
                    counters[key.rsplit(".", 1)[-1]] += value
        return {"digest": digest.hexdigest(),
                "timeline": timeline.hexdigest(), "calls": digest.calls,
                "counters": counters, "filled": fill.filled, "seen": seen,
                "injected": [f.packet_kind for f in injected],
                "rx": rx.log,
                "sleeps": sleeps["at_stamp"]}


#: scenario -> keyword arguments of :func:`_run`
SCENARIOS = {
    "send-fifo-full": dict(params=_params(send_fifo_entries=8)),
    # the first explicit chunk ack is lost, so the store completes on the
    # ack the get's data carries back
    "ack-mid-drain": dict(store_chunks=1, get_chunks=2, plan=FaultPlan(
        seed=0, rules=(FaultRule("drop", packet_kinds=frozenset(
            {PacketKind.ACK}), budget=1),))),
    "rx-drop-at-arrival": dict(params=_params(
        recv_fifo_entries_per_node=2, lazy_pop_batch=2), store_chunks=2),
    "pop-before-arrival": dict(params=_params(
        recv_fifo_entries_per_node=3, lazy_pop_batch=2), store_chunks=2),
    "handoff-ahead": dict(params=_params(
        recv_fifo_entries_per_node=4, lazy_pop_batch=4), store_chunks=2),
    # node 1 starts serving late, with a backlog in its receive FIFO
    "stretch-ends-at-pop": dict(store_chunks=2, late_us=300.0),
    # the same, with a fault injector planted whose rule never fires
    "handoff-in-stretch": dict(store_chunks=3, late_us=300.0,
                               plan=FaultPlan(seed=0, rules=(FaultRule(
                                   "drop", packet_kinds=frozenset(
                                       {PacketKind.MPL_DATA})),))),
    "asleep-after-accept": dict(store_chunks=1),
}


def _run_mpl():
    """Node 0 sends three one-word MPL messages to node 1, which computes
    for 20 us and then receives them in turn: it blocks in
    ``wait_for_arrival`` for each."""
    late_us, messages = 20.0, 3
    with Timeline() as timeline:
        sim = Simulator()
        digest = sim.check = _CallCounts()
        machine = build_sp_machine(sim, 2)
        timeline.watch(machine)
        mpl0, mpl1 = attach_mpl(machine)
        a1 = machine.node(1).adapter
        blocked = Counter()
        arrival_event = a1.arrival_event

        def watched_arrival_event():
            slots = a1.recv_fifo.slots
            if slots and slots[0][0] > sim.now:
                blocked["accepted"] += 1
            return arrival_event()

        a1.arrival_event = watched_arrival_event
        got = []

        def sender():
            for i in range(messages):
                yield from mpl0.mpc_bsend(bytes([i + 1]) * 4, 1, tag=i)

        def receiver():
            yield from machine.node(1).compute(late_us)
            for i in range(messages):
                got.append((yield from mpl1.mpc_brecv(4, 0, tag=i)))

        procs = [sim.spawn(sender(), name="mpl-sender"),
                 sim.spawn(receiver(), name="mpl-receiver")]
        sim.run_until_processes_done(procs, limit=1e8)
    assert got == [bytes([i + 1]) * 4 for i in range(messages)]
    return {"digest": digest.hexdigest(), "timeline": timeline.hexdigest(),
            "calls": digest.calls,
            "lands": digest.by_node["TB2Adapter._land", 1],
            "blocked": blocked["accepted"]}


def _pinned(name):
    run = _run(**SCENARIOS[name])
    assert (run["digest"], run["timeline"]) == PINS[name]
    return run


def test_send_fifo_full_mid_batch_syncs():
    run = _pinned("send-fifo-full")
    # a stage filled the FIFO with packets of the stretch still to stage
    assert run["filled"] > 0


def test_ack_mid_drain_completes_the_store():
    run = _pinned("ack-mid-drain")
    counters = run["counters"]
    assert run["injected"] == ["ACK"]
    # the dropped chunk ack was never resent: the store completed on a
    # piggybacked ack, inside the get's drain, with no retransmission
    assert counters["retransmissions"] == 0
    assert counters["bulk_ops_completed"] == 2


def test_near_full_rx_fifo_drops_at_arrival():
    run = _pinned("rx-drop-at-arrival")
    assert run["counters"]["rx_dropped_overflow"] == 12
    assert run["seen"]["full"] > 0
    # no fault: every drop was a verdict settled after injection
    assert run["seen"]["settled"] >= 12


def test_pop_between_injection_and_arrival():
    run = _pinned("pop-before-arrival")
    # full at injection, yet nothing dropped: a pop made room before the
    # packet arrived, and the lazily settled verdict saw it
    assert run["seen"]["full"] > 0
    assert run["seen"]["settled"] > 0
    assert run["counters"]["rx_dropped_overflow"] == 0


def test_handoff_in_flight_holds_the_next_packet():
    run = _pinned("handoff-ahead")
    seen = run["seen"]
    assert seen["behind_pending"] > 0
    # every packet that could not be settled at injection was settled
    # later, in order
    assert seen["settled"] == seen["full"] + seen["behind_pending"]
    # and the packets that came ahead were settled at injection
    counters = run["counters"]
    assert counters["rx_packets"] > (seen["settled"]
                                     - counters["rx_dropped_overflow"])
    # a drain that found nothing visible synced, settled what had
    # arrived, and found a packet
    assert _found_after_sync(run["rx"]) > 0


def _stamp_pinned(name):
    if name == "mpl-wait-at-stamp":
        run = _run_mpl()
    else:
        run = _run(**SCENARIOS[name])
    assert (run["digest"], run["timeline"]) == STAMP_PINS[name]
    return run


def test_receive_stretch_ends_at_lazy_pop():
    run = _stamp_pinned("stretch-ends-at-pop")
    assert _stretch_pops(run["rx"]) > 0


def test_handoff_packet_found_after_empty_sync():
    run = _stamp_pinned("handoff-in-stretch")
    # the planted rule fired on nothing, and no packet waited for a
    # lazy settlement: the plan changed no packet's path
    assert run["injected"] == []
    assert run["seen"]["settled"] == 0
    assert run["counters"]["rx_packets"] == 111


def test_spam_host_asleep_on_an_accepted_packet():
    run = _stamp_pinned("asleep-after-accept")
    # waits that began with a packet accepted, not yet visible and with
    # no landing queued, and that a landing at node 1 ended
    assert run["sleeps"] > 0


def test_mpl_waiter_wakes_at_a_stamped_arrival():
    run = _stamp_pinned("mpl-wait-at-stamp")
    assert run["blocked"] > 0
    assert run["lands"] > 0
