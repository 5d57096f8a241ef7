"""The stamped receive FIFO against an event per packet.

The TB2 adapter queues each packet it accepts in the receive FIFO, stamped
with the instant its RX DMA completes; the host sees a slot once its clock
reaches the stamp, and an event marks the instant only for a host blocked
on the arrival event (docs/architecture.md, "The stamped receive FIFO").
The reference lands every accepted packet by its own event at its
stamp.  Random injections, taking either delivery path
or dropped at a full FIFO, interleave with host polls at arbitrary
instants, consumes, pops and blocking waits; at every poll the host's
view must be the reference's, and the slot ledger must balance.

Polls fall on whole microseconds and injections half-way between, so a
stamp that lands on a poll instant exactly is a float coincidence; such a
poll is skipped (the tie rule has its own test below).
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.core import RecvFifoCheck, Sanitizer
from repro.hardware import build_sp_machine
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.params import machine_params, with_overrides
from repro.sim import TIMED_OUT, Simulator, Timeout, Until


class _Reference:
    """A receive FIFO's ``check`` hook that lands every accepted packet
    by its own event at its stamp, then hands each call to a
    :class:`RecvFifoCheck`."""

    def __init__(self, sim, fifo):
        self.sim = sim
        self.inner = RecvFifoCheck(Sanitizer(), "recv_fifo[ref]", fifo)
        #: landed and not yet consumed, in landing order
        self.visible = deque()
        #: every accepted packet's stamp
        self.stamps = []
        self.reserved = self.consumed = self.popped = 0

    def _land(self, packet):
        self.visible.append(packet)

    def on_reserve(self, fifo):
        self.reserved += 1
        self.inner.on_reserve(fifo)

    def on_deliver(self, fifo):
        stamp, _order, packet = fifo.slots[-1]
        self.stamps.append(stamp)
        self.sim.at(stamp, self._land, packet)
        self.inner.on_deliver(fifo)

    def on_consume(self, fifo):
        self.consumed += 1
        self.inner.on_consume(fifo)

    def on_pop(self, fifo, freed):
        self.popped += freed
        self.inner.on_pop(fifo, freed)


def _machine(entries_per_node, lazy_pop_batch):
    sim = Simulator()
    params = with_overrides(machine_params("sp-thin"),
                            recv_fifo_entries_per_node=entries_per_node,
                            lazy_pop_batch=lazy_pop_batch)
    return sim, build_sp_machine(sim, 2, params)


_OPS = st.one_of(
    st.tuples(st.just("poll"), st.integers(0, 15)),
    st.tuples(st.just("consume"), st.integers(1, 4)),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("wait"), st.integers(1, 60)),
)


@settings(max_examples=60, deadline=None)
@given(entries=st.integers(1, 4), batch=st.integers(1, 4),
       injections=st.lists(st.tuples(st.integers(0, 12),
                                     st.integers(0, 224)),
                           min_size=1, max_size=24),
       ops=st.lists(_OPS, min_size=1, max_size=40))
def test_host_view_matches_a_landing_event_per_packet(entries, batch,
                                                      injections, ops):
    sim, machine = _machine(entries, batch)
    adapter = machine.node(1).adapter
    rf = adapter.recv_fifo
    ref = rf.check = _Reference(sim, rf)
    t = 0.5
    for i, (gap, size) in enumerate(injections):
        t += gap
        packet = Packet(src=0, dst=1, kind=PacketKind.RAW, seq=i,
                        payload=bytes(size))
        sim.at(t, machine.switch.inject, packet, t)
    problems = []

    def check():
        now = sim.now
        if any(s == now for s in ref.stamps):
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
            elif op == "consume":
                for _ in range(min(arg, adapter.host_recv_available())):
                    got = adapter.host_recv_consume()
                    want = ref.visible.popleft()
                    if got is not want:
                        problems.append((sim.now, "consume", got.seq,
                                         want.seq))
            elif op == "pop":
                if rf.pending_pop:
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
    assert not problems, problems[:3]
    # the ledger balances and every stamp came in RX-DMA order
    ck = ref.inner
    assert (ck.reserved, ck.delivered, ck.consumed, ck.popped) == (
        ref.reserved, ref.reserved, ref.consumed, ref.popped)
    ck.at_quiescence()
    stamps = ref.stamps
    assert stamps == sorted(stamps)


def test_a_host_resumed_at_the_stamp_sees_the_packet():
    """The tie rule: a slot whose stamp equals the host's clock is
    visible.  A host that slept to the stamp of a packet already accepted
    finds it, as it did when the landing event ran first."""
    sim, machine = _machine(4, 4)
    adapter = machine.node(1).adapter
    packet = Packet(src=0, dst=1, kind=PacketKind.RAW)
    seen = []

    def host():
        machine.switch.inject(packet, 0.0)
        stamp = adapter.recv_fifo.slots[-1][0]
        assert adapter.host_recv_available() == 0
        yield Until(stamp)
        seen.append(adapter.host_recv_available())

    sim.run_until_processes_done([sim.spawn(host(), name="host")])
    assert seen == [1]


def test_a_drained_run_ends_at_the_last_stamp():
    """Nothing waits, so no event marks the landing; a run that drains the
    queue still ends when the last packet becomes visible."""
    sim, machine = _machine(4, 4)
    adapter = machine.node(1).adapter
    for i in range(3):
        machine.switch.inject(Packet(src=0, dst=1, kind=PacketKind.RAW,
                                     seq=i), 2.0 * i)
    last = adapter.recv_fifo.slots[-1][0]
    assert sim.run() == last
    assert adapter.host_recv_available() == 3


def test_a_sleeper_wakes_at_the_first_slot_it_has_not_seen():
    """A slot accepted ahead, then a hand-off slot behind it still in RX
    DMA: a host that blocks between them wakes at the first one's stamp,
    by a landing, not at the second's ``_deliver``."""
    sim, machine = _machine(4, 4)
    adapter = machine.node(1).adapter
    slots = adapter.recv_fifo.slots
    woke = []

    def host():
        adapter.accept_ahead(Packet(src=0, dst=1, kind=PacketKind.RAW), 1.0)
        yield Until(2.0)
        adapter.on_wire_arrival(Packet(src=0, dst=1, kind=PacketKind.RAW,
                                       seq=1))
        first, second = slots[0][0], slots[1][0]
        assert sim.now < first < second
        res = yield Timeout(adapter.arrival_event(), 100.0)
        woke.append((res is TIMED_OUT, sim.now == first))

    sim.run_until_processes_done([sim.spawn(host(), name="host")])
    assert woke == [(False, True)]
