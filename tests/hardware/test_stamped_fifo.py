"""The one delivery path against an event per packet.

The switch hands every packet to :meth:`TB2Adapter.accept` at injection.
The adapter decides the CRC verdict and the injected ``rx_overflow``
there, settles the packet at once when it can, and otherwise settles it
at the host's next touch of the receive FIFO; a settled packet is queued
stamped with the instant its RX DMA completes, and an event marks that
instant only for a host blocked on the arrival event (docs/architecture.md,
"The stamped receive FIFO" and "Acceptance and settlement").

The reference decides everything at each packet's arrival, by an event
there, and lands every accepted packet by its own event at its stamp:
the machine as it was when every faulted packet took that path.  Random
injections carry every verdict: fabric reorder holds and duplicates, a
corrupted copy that fails the CRC, a forced ``rx_overflow``, and a
receive FIFO full at injection, with host pops before or after the
arrival.  They interleave with host polls at arbitrary instants, idle
stretches, consumes, pops and blocking waits; at every poll the host's view must be
the reference's, and the slot ledger must balance.

Polls fall on whole microseconds and injections half-way between, so an
arrival or a stamp that lands on a host instant exactly is a float
coincidence, whose tie the two models need not break alike; such a poll
is skipped, and an example whose pop shares an instant with an arrival is
discarded.
"""

from collections import deque

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.check.core import RecvFifoCheck, Sanitizer
from repro.faults import FaultPlan, FaultRule, install_faults
from repro.hardware import build_sp_machine
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.params import machine_params, with_overrides
from repro.sim import TIMED_OUT, Simulator, Timeout, Until


class _Reference:
    """Wraps an adapter's ``accept``: every packet the switch hands over
    also gets an event at its arrival, where the reference decides its
    verdict as the adapter's hardware would, then an event at its stamp
    that lands it.  Chained in front of a :class:`RecvFifoCheck` as the
    FIFO's ``check`` hook, it sees the host's pops."""

    def __init__(self, sim, adapter, forced_overflow):
        self.sim = sim
        self.adapter = adapter
        self.forced = forced_overflow
        fifo = adapter.recv_fifo
        self.capacity = fifo.capacity
        self.inner = RecvFifoCheck(Sanitizer(), "recv_fifo[ref]", fifo)
        fifo.check = self
        accept = adapter.accept

        def watched(packet, arrive_at):
            sim.at(arrive_at, self._arrive, packet)
            accept(packet, arrive_at)

        adapter.accept = watched
        p = adapter.params
        self._dma_rate = p.mc_dma_rate
        self._occ = p.i860_rx_occupancy
        self._latency = p.i860_rx_latency
        self._rx_free = 0.0
        self.occupied = 0
        #: landed and not yet consumed, in landing order
        self.visible = deque()
        #: every accepted packet's stamp, and every arrival's instant
        self.stamps = []
        self.arrivals = []
        self.dropped = {"crc": 0, "overflow": 0}
        self.reserved = self.consumed = self.popped = 0

    def _arrive(self, packet):
        now = self.sim.now
        self.arrivals.append(now)
        if packet.checksum >= 0 and not packet.checksum_ok():
            self.dropped["crc"] += 1
            return
        if packet.seq in self.forced or self.occupied >= self.capacity:
            self.dropped["overflow"] += 1
            return
        self.occupied += 1
        dma = packet.wire_bytes / self._dma_rate
        start = max(now, self._rx_free)
        self._rx_free = start + max(dma, self._occ)
        stamp = self.sim.at(start + dma + self._latency, self._land,
                            packet)[0]
        self.stamps.append(stamp)

    def _land(self, packet):
        self.visible.append(packet)

    def on_reserve(self, fifo):
        self.reserved += 1
        self.inner.on_reserve(fifo)

    def on_deliver(self, fifo):
        self.inner.on_deliver(fifo)

    def on_consume(self, fifo):
        self.consumed += 1
        self.inner.on_consume(fifo)

    def on_pop(self, fifo, freed):
        self.popped += freed
        self.occupied -= freed
        self.inner.on_pop(fifo, freed)


def _machine(entries_per_node, lazy_pop_batch):
    sim = Simulator()
    params = with_overrides(machine_params("sp-thin"),
                            recv_fifo_entries_per_node=entries_per_node,
                            lazy_pop_batch=lazy_pop_batch)
    return sim, build_sp_machine(sim, 2, params)


def _plan(faults, hold_us=20.0):
    """Seq-targeted rules: each injection's fault, if any, fires on it."""
    seqs = {kind: frozenset(i for i, k in enumerate(faults) if k == kind)
            for kind in ("reorder", "duplicate", "corrupt", "rx_overflow")}
    return FaultPlan(seed=0, rules=tuple(
        FaultRule(kind, seqs=seqs[kind], delay_us=hold_us)
        for kind in ("reorder", "duplicate", "corrupt", "rx_overflow")
        if seqs[kind]))


_OPS = st.one_of(
    st.tuples(st.just("poll"), st.integers(0, 15)),
    st.tuples(st.just("idle"), st.integers(1, 15)),
    st.tuples(st.just("consume"), st.integers(1, 4)),
    st.tuples(st.just("pop"), st.integers(0, 8)),
    st.tuples(st.just("wait"), st.integers(1, 60)),
)

_FAULTS = st.sampled_from(
    [None] * 4 + ["reorder", "duplicate", "corrupt", "rx_overflow"])


@settings(max_examples=100, deadline=None)
@given(entries=st.integers(1, 4), batch=st.integers(1, 4),
       injections=st.lists(st.tuples(st.integers(0, 12),
                                     st.integers(0, 224), _FAULTS),
                           min_size=1, max_size=24),
       ops=st.lists(_OPS, min_size=1, max_size=40))
def test_host_view_matches_a_landing_event_per_packet(entries, batch,
                                                      injections, ops):
    sim, machine = _machine(entries, batch)
    adapter = machine.node(1).adapter
    rf = adapter.recv_fifo
    faults = [fault for _gap, _size, fault in injections]
    if any(faults):
        install_faults(machine, _plan(faults))
    ref = _Reference(sim, adapter, frozenset(
        i for i, fault in enumerate(faults) if fault == "rx_overflow"))
    t = 0.5
    for i, (gap, size, _fault) in enumerate(injections):
        t += gap
        packet = Packet(src=0, dst=1, kind=PacketKind.RAW, seq=i,
                        payload=bytes(size))
        sim.at(t, machine.switch.inject, packet, t)
    problems = []
    pops = []

    def check():
        now = sim.now
        if now in ref.stamps or now in ref.arrivals:
            return  # a float coincidence: see the module docstring
        n = adapter.host_recv_available()
        seen = [slot[2] for slot in list(rf.slots)[:n]]
        if seen != list(ref.visible):
            problems.append((now, "visible", [p.seq for p in seen],
                             [p.seq for p in ref.visible]))
        if rf.occupied != ref.reserved - ref.popped:
            problems.append((now, "occupied", rf.occupied))

    def host():
        for op, arg in ops:
            if op == "poll":
                yield Until(float(int(sim.now) + arg))
                check()
            elif op == "idle":
                # time passes with no read of the FIFO
                yield Until(float(int(sim.now) + arg))
            elif op == "consume":
                for _ in range(min(arg, adapter.host_recv_available())):
                    got = adapter.host_recv_consume()
                    want = ref.visible.popleft() if ref.visible else None
                    if got is not want:
                        problems.append((sim.now, "consume", got.seq,
                                         getattr(want, "seq", None)))
            elif op == "pop":
                if arg:
                    # a pop after time passed with no read of the FIFO
                    yield Until(float(int(sim.now) + arg))
                if rf.pending_pop:
                    pops.append(sim.now)
                    adapter.host_recv_pop_batch()
            else:
                t0 = sim.now
                res = yield Timeout(adapter.arrival_event(), float(arg))
                woke = sim.now
                later = [s for s in ref.stamps if s > t0]
                if res is TIMED_OUT:
                    if later and min(later) <= woke:
                        problems.append((woke, "slept past", min(later)))
                elif not later or woke != min(later):
                    problems.append((woke, "woke", t0, later[:1]))
                # back on the whole-microsecond grid of the polls
                yield Until(float(int(sim.now) + 1))
                check()

    sim.run_until_processes_done([sim.spawn(host(), name="host")])
    sim.run()
    assume(not set(pops) & set(ref.arrivals))
    assert not problems, problems[:3]
    # a slot is reserved at injection or at the arrival; after the last
    # arrival the two FIFOs hold the same
    assert rf.occupied == ref.occupied
    # the same verdicts, the ledger balances, and every stamp came in
    # RX-DMA order
    stats = adapter.stats
    assert (stats.get("rx_dropped_corrupt"),
            stats.get("rx_dropped_overflow")) == (ref.dropped["crc"],
                                                   ref.dropped["overflow"])
    assert adapter.pending == []
    ck = ref.inner
    assert (ck.reserved, ck.delivered, ck.consumed, ck.popped) == (
        ref.reserved, ref.reserved, ref.consumed, ref.popped)
    assert ck.reserved == len(ref.stamps)
    ck.at_quiescence()
    assert ref.stamps == sorted(ref.stamps)


def _raw(seq, size=0):
    return Packet(src=0, dst=1, kind=PacketKind.RAW, seq=seq,
                  payload=bytes(size))


def test_a_host_resumed_at_the_stamp_sees_the_packet():
    """The tie rule: a slot whose stamp equals the host's clock is
    visible.  A host that slept to the stamp of a packet already accepted
    finds it, as it did when the landing event ran first."""
    sim, machine = _machine(4, 4)
    adapter = machine.node(1).adapter
    seen = []

    def host():
        machine.switch.inject(_raw(0), 0.0)
        stamp = adapter.recv_fifo.slots[-1][0]
        assert adapter.host_recv_available() == 0
        yield Until(stamp)
        seen.append(adapter.host_recv_available())

    sim.run_until_processes_done([sim.spawn(host(), name="host")])
    assert seen == [1]


def test_a_drained_run_ends_at_the_last_stamp():
    """Nothing waits, so no event marks the landing; a run that drains the
    queue still ends when the last packet becomes visible, or, when a
    packet settled later is dropped after that, at its arrival."""
    sim, machine = _machine(4, 4)
    adapter = machine.node(1).adapter
    for i in range(3):
        machine.switch.inject(_raw(i), 2.0 * i)
    last = adapter.recv_fifo.slots[-1][0]
    assert sim.run() == last
    assert adapter.host_recv_available() == 3

    sim, machine = _machine(1, 1)
    adapter = machine.node(1).adapter
    for i in range(2):
        machine.switch.inject(_raw(i), 0.0)
    # the FIFO is full, and stays full until this packet arrives
    machine.switch.inject(_raw(2), 20.0)
    (arrive, _order, _packet, _marked), = adapter.pending
    assert arrive > adapter.recv_fifo.slots[-1][0]
    assert sim.run() == arrive
    assert adapter.stats.get("rx_dropped_overflow") == 1
    assert adapter.host_recv_available() == 2


def test_a_sleeper_wakes_at_the_first_slot_it_has_not_seen():
    """Two slots settled at injection, then a packet pending behind them
    (the FIFO is full): a host that blocks wakes at the first slot's
    stamp, by its landing."""
    sim, machine = _machine(1, 1)
    adapter = machine.node(1).adapter
    slots = adapter.recv_fifo.slots
    woke = []

    def host():
        for i in range(3):
            machine.switch.inject(_raw(i), 0.0)
        assert len(slots) == 2 and len(adapter.pending) == 1
        first = slots[0][0]
        res = yield Timeout(adapter.arrival_event(), 100.0)
        woke.append((res is TIMED_OUT, sim.now == first))

    sim.run_until_processes_done([sim.spawn(host(), name="host")])
    assert woke == [(False, True)]


def test_a_full_fifo_verdict_sees_the_pops_before_the_arrival():
    """A packet that finds the FIFO full at injection is settled at the
    host's next touch: a pop before its arrival makes room for it, a pop
    after does not."""
    for pop_first, accepted in ((True, 1), (False, 0)):
        sim, machine = _machine(1, 1)
        adapter = machine.node(1).adapter
        rf = adapter.recv_fifo
        for i in range(2):
            machine.switch.inject(_raw(i), 0.0)
        sim.run()
        machine.switch.inject(_raw(2), sim.now)
        (arrive, _order, _packet, _marked), = adapter.pending
        for _ in range(2):
            adapter.host_recv_consume()
        delay = -0.25 if pop_first else 0.25

        def host():
            yield Until(arrive + delay)

        sim.run_until_processes_done([sim.spawn(host(), name="host")])
        adapter.host_recv_pop_batch()
        sim.run()
        assert adapter.host_recv_available() == accepted
        assert adapter.stats.get("rx_dropped_overflow") == 1 - accepted
        assert rf.occupied == accepted


def test_a_held_packet_is_overtaken_and_lands_in_rx_dma_order():
    """A reorder hold longer than the next packet's serialization: the
    held packet waits in ``pending``, the one injected after it arrives
    first and is settled at once, and a blocked host wakes at each stamp
    in arrival order; the held packet is settled by a landing at its
    arrival, queued because the host blocked on it."""
    sim, machine = _machine(4, 4)
    install_faults(machine, FaultPlan(seed=0, rules=(
        FaultRule("reorder", seqs=frozenset({0}), delay_us=40.0),)))
    adapter = machine.node(1).adapter
    slots = adapter.recv_fifo.slots
    woke = []

    def host():
        machine.switch.inject(_raw(0, 64), 0.0)
        machine.switch.inject(_raw(1, 64), 0.0)
        (arrive, _order, _held, _marked), = adapter.pending
        assert [slot[2].seq for slot in slots] == [1]
        assert slots[0][0] < arrive
        for _ in range(2):
            res = yield Timeout(adapter.arrival_event(), 200.0)
            assert res is not TIMED_OUT
            woke.append((res.seq, sim.now))
            assert adapter.host_recv_available() == 1
            adapter.host_recv_consume()
        assert woke[1][1] > arrive

    sim.run_until_processes_done([sim.spawn(host(), name="host")])
    assert [seq for seq, _t in woke] == [1, 0]
