"""Pinned scenarios at every boundary of the fused host charges and the
one-event delivery.

SPAM's bulk send and receive paths run their host charges as charge
stretches that yield only where another component can observe the
instant, and the switch hands most packets to the receiving host in one
event (docs/architecture.md, "Fused host charges and one-event
delivery").  Each scenario below sits on one sync point or one
precondition.  It pins its timeline (``tests.timeline``), recorded before
either shortcut existed, so the shortcuts must reproduce the machine
exactly; and its event digest, which moves with them.  Each also asserts
that its boundary is really reached:

* the send FIFO fills in the middle of an arm batch (an 8-entry FIFO, a
  3-chunk store): the stretch syncs before its backoff;
* a piggybacked ack advances a send window in the middle of a drain and
  completes a store whose explicit chunk ack was dropped: the drain syncs
  before it applies the ack;
* a receive FIFO near capacity drops packets at arrival, on the hand-off
  path, exactly where it dropped them before;
* a host pop lands between a packet's injection and its arrival: the
  packet found the receive FIFO full at injection and room at arrival;
* a hand-off-path packet is in flight ahead of a packet the receive FIFO
  has room for: the second waits behind the first on the hand-off path.
"""

from collections import Counter

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.check import EventDigest
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.packet import PacketKind
from repro.hardware.params import machine_params, with_overrides
from repro.sim import Simulator, WaitEvent
from tests.timeline import Timeline

#: scenario -> (event digest, timeline digest); the timelines were
#: recorded before bulk host charges were fused and packets delivered in
#: one event
PINS = {
    "send-fifo-full": ("3dcdd3c961201bdeb1e260f75c41fa23",
                       "a8a33f501997a9dd5b7831f2b7b90cd1"),
    "ack-mid-drain": ("636b0547cc5dfa751d2f66cad8a76626",
                      "8db2f822eaa23523c9cc9a78ab7c8669"),
    "rx-drop-at-arrival": ("38f583ef16bd1acc85e873c4e0d38e53",
                           "189a3f1a18182408876035b2a97be5b6"),
    "pop-before-arrival": ("6ff3d02b745dc93eb6a3e7f15500d00e",
                           "cbf16d757e0642cbd230ea6009e8d4d0"),
    "handoff-ahead": ("1674cc61b6c752c98af72962cf2b19a7",
                      "900041d6125707ac6f41f2ae4fc8666d"),
}


def _params(**adapter):
    return with_overrides(machine_params("sp-thin"), **adapter)


class _CallCounts(EventDigest):
    """An event digest that also counts executed events by callback."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def on_execute(self, entry):
        super().on_execute(entry)
        fn = entry[2]
        self.calls[getattr(fn, "__qualname__", type(fn).__name__)] += 1


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


def _watch_injections(machine):
    """Classify each injection by its destination's state at that
    instant: receive FIFO full, or room but a hand-off-path packet still
    in the fabric ahead of it."""
    seen = Counter()
    switch = machine.switch
    inject = switch.inject

    def watched(packet, wire_exit_time):
        adapter = machine.node(packet.dst).adapter
        rf = adapter.recv_fifo
        if rf.occupied >= rf.capacity:
            seen["full"] += 1
        elif adapter.handoffs:
            seen["behind_handoff"] += 1
        inject(packet, wire_exit_time)

    switch.inject = watched
    return seen


def _run(params=None, plan=None, store_chunks=3, get_chunks=0,
         watch=True):
    """Node 0 runs ``store_async`` of ``store_chunks`` chunks to node 1,
    then a blocking ``get`` of ``get_chunks`` chunks back, then waits for
    the store.  A marker process finishes when ``store_async`` returns, a
    watcher when the store's event fires.  Node 1 serves until node 0 is
    done.  With ``watch``, the run's
    boundaries are counted too."""
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
            while not sender.finished:
                yield from am1._wait_progress()

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
                "injected": [f.packet_kind for f in injected]}


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
}


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
    assert run["calls"]["Switch._hand_off"] > 0


def test_pop_between_injection_and_arrival():
    run = _pinned("pop-before-arrival")
    # full at injection, yet nothing dropped: a pop made room before the
    # packet arrived
    assert run["seen"]["full"] > 0
    assert run["counters"]["rx_dropped_overflow"] == 0


def test_handoff_in_flight_holds_the_next_packet():
    run = _pinned("handoff-ahead")
    assert run["seen"]["behind_handoff"] > 0
    assert run["calls"]["Switch._hand_off"] == (
        run["seen"]["full"] + run["seen"]["behind_handoff"])
    assert run["calls"]["TB2Adapter._land"] > 0
