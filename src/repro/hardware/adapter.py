"""The TB2 communication adapter (§1.2, §2.1).

Transmit path: the host stages packets into the send FIFO (host DRAM),
flushes their cache lines, and arms them by storing lengths into the packet
length array across the MicroChannel.  The i860's scan loop notices armed
slots and services packets one at a time: DMA the entry across the
MicroChannel into adapter RAM, push it through the MSMU onto the switch
link.  Each service is modelled with an *occupancy* (pacing the next
packet — set by the larger of DMA time, i860 per-packet work, and wire
serialization) and a *latency* (this packet's transit).

Receive path: the switch hands every packet over at injection
(:meth:`TB2Adapter.accept`).  A packet that fails the CRC is **dropped**,
and so is one that finds the receive FIFO full when it arrives
(input-buffer overflow — the loss case §2.2's flow control exists for).
Otherwise the adapter DMAs it into the host-resident receive queue, where
it becomes visible to polling software after the RX latency: it enters
the receive FIFO stamped with that instant, a polling host compares the
stamp with its clock, and an event marks the instant only where a host is
blocked on :meth:`TB2Adapter.arrival_event`.

Software above charges its own CPU costs (cache flushes, PIO stores,
polling); this module charges only adapter-side time.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappush
from typing import List, Optional

from repro.hardware.fifo import RecvFIFO, SendFIFO
from repro.hardware.packet import Packet
from repro.hardware.params import AdapterParams, SwitchParams
from repro.sim import Simulator
from repro.sim.primitives import Event
from repro.sim.stats import StatRegistry

class TB2Adapter:
    """One node's network adapter, attached to a :class:`Switch`."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: AdapterParams,
        switch_params: SwitchParams,
        active_nodes: int,
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.switch_params = switch_params
        self.send_fifo = SendFIFO(params.send_fifo_entries)
        self.recv_fifo = RecvFIFO(
            capacity=params.recv_fifo_entries_per_node * max(1, active_nodes),
            lazy_pop_batch=params.lazy_pop_batch,
        )
        self.switch = None  # set by Machine
        self.stats = StatRegistry(f"tb2[{node_id}].")
        # per-packet counters resolved once (hot path)
        self._c_tx_staged = self.stats.counter("tx_staged")
        self._c_tx_packets = self.stats.counter("tx_packets")
        self._c_tx_bytes = self.stats.counter("tx_bytes")
        self._c_rx_packets = self.stats.counter("rx_packets")
        # bound on first use, not here: a counter that exists reads 0 in
        # every snapshot, report and sampler layout
        self._c_rx_pop_pio = None
        #: observability hub (set by Observatory.attach; None = untraced)
        self.obs = None
        #: optional :class:`~repro.faults.injector.FaultInjector` (set by
        #: ``install_faults``; duck-typed): forced receive-FIFO overflow
        #: and send-DMA stalls
        self.faults = None
        # TX service bookkeeping
        self._tx_free = 0.0
        self._tx_scheduled = False
        #: cumulative TX occupancy (µs the TX engine was busy); only
        #: accumulated under an attached Observatory — the metrics
        #: sampler differences it into per-period utilization
        self.tx_busy_us = 0.0
        # RX service bookkeeping
        self._rx_free = 0.0
        # per-packet constants hoisted out of the service loops (the
        # params dataclasses are frozen, so these can never go stale)
        self._mc_dma_rate = params.mc_dma_rate
        self._i860_tx_occupancy = params.i860_tx_occupancy
        self._i860_tx_latency = params.i860_tx_latency
        self._msmu_gap = params.msmu_gap
        self._i860_rx_occupancy = params.i860_rx_occupancy
        self._i860_rx_latency = params.i860_rx_latency
        self._link_rate = switch_params.link_rate
        self._arrival_event: Optional[Event] = None
        # precomputed once: arrival_event() runs per blocked-wait cycle
        self._arrival_event_name = f"tb2[{node_id}].arrival"
        # bound once: these are scheduled per packet
        self._tx_service_cb = self._tx_service
        self._land_cb = self._land
        #: the simulator's heap, which a ``_land`` goes straight into (its
        #: instant is a stamp or an arrival, not ``now`` plus a delay)
        self._queue = sim._queue
        #: a slot's ``_land`` is queued (at most one at a time)
        self._landing = False
        #: accepted, not yet settled: ``[arrive, order, packet, marked]``
        #: in ``(arrive, order)`` order, ``marked`` once a ``_land`` is
        #: queued at the arrival
        self.pending: List[list] = []
        #: the latest arrival of a packet dropped here
        self._last_drop = 0.0
        # a drained Simulator.run ends at the last stamp or drop
        sim._stamp_sources.append(self._last_stamp)

    # ------------------------------------------------------------------
    # Host-facing API (costs are charged by the calling software layer)
    # ------------------------------------------------------------------

    def host_can_stage(self) -> bool:
        """Whether the send FIFO has a free entry."""
        return self.send_fifo.free_entries > 0

    def host_stage(self, packet: Packet) -> None:
        """Write one packet into the next send-FIFO entry.

        Stamps no CRC: the fabric's corrupt fault is the only thing that
        changes a staged packet's bytes, and it stamps the CRC of the
        original contents on the copy it damages (see
        :attr:`~repro.hardware.packet.Packet.checksum`), so an unaltered
        packet passes the receive check on one int compare.
        """
        self.send_fifo.stage(packet)
        self._c_tx_staged.value += 1
        if self.obs is not None:
            self.obs.packet_staged(packet, self.sim.now)

    def host_arm(self) -> int:
        """Store the lengths of every staged packet into the packet length
        array — one MicroChannel PIO for the whole batch (the
        bulk-transfer optimization of §2.1)."""
        armed = self.send_fifo.arm()
        if armed and not self._tx_scheduled:
            self._tx_scheduled = True
            self.sim.schedule(self.params.length_scan, self._tx_service_cb)
        return armed

    def host_recv_consume(self) -> Packet:
        """Read the head packet out of the receive queue (host copy cost is
        charged by the poller, which has seen it visible)."""
        pkt = self.recv_fifo.consume()
        if self.obs is not None:
            span = self.obs.spans.get(pkt.trace_id)  # inlined mark_packet
            if span is not None:
                span.marks["consume"] = self.sim.now
        return pkt

    def host_recv_should_pop(self) -> bool:
        """Whether enough entries are consumed to justify a pop PIO."""
        return self.recv_fifo.should_pop()

    def host_recv_pop_batch(self) -> int:
        """Return consumed entries to the adapter (caller charges ~1 us
        PIO), once what arrived before the pop is settled."""
        if self.pending:
            self.settle(self.sim.now)
        freed = self.recv_fifo.pop_batch()
        c = self._c_rx_pop_pio
        if c is None:
            c = self._c_rx_pop_pio = self.stats.counter("rx_pop_pio")
        c.value += 1
        return freed

    def host_recv_available(self) -> int:
        """Packets visible to the host right now: slots stamped at or
        before the clock."""
        now = self.sim.now
        if self.pending:
            self.settle(now)
        n = 0
        for slot in self.recv_fifo.slots:
            if slot[0] > now:
                break
            n += 1
        return n

    def arrival_event(self) -> Event:
        """A one-shot event that fires at the next packet landing: the
        first stamp after now.

        Blocking software (e.g. a store waiting for its ack) waits on this
        instead of burning simulated poll cycles; the timing is identical
        because nothing else runs on the node's CPU meanwhile.  Asking for
        it queues the ``_land`` that fires it (:meth:`_arm`).
        """
        ev = self._arrival_event
        if ev is None or ev._ok:
            ev = self._arrival_event = Event(self.sim,
                                             self._arrival_event_name)
        self._arm(self.sim.now)
        return ev

    def _arm(self, now: float) -> None:
        """Settle what has arrived by ``now``, then queue the ``_land`` a
        blocked host needs next, unless a slot's is queued: at the first
        slot stamped after ``now``, else at the first pending packet's
        arrival, to settle it there."""
        if self.pending:
            self.settle(now)
        if self._landing:
            return
        for slot in self.recv_fifo.slots:
            if slot[0] > now:
                self._land_at(slot)
                return
        pending = self.pending
        if pending and not pending[0][3]:
            head = pending[0]
            head[3] = True
            heappush(self._queue, [head[0], head[1], self._land_cb,
                                   (head[0], head[1], None)])

    def _land_at(self, slot: tuple) -> None:
        """Queue the ``_land`` that fires the arrival event when ``slot``
        becomes visible, in the slot's place in the event order."""
        self._landing = True
        # the slot is the callback's arguments: _land(stamp, order, packet)
        heappush(self._queue, [slot[0], slot[1], self._land_cb, slot])

    # ------------------------------------------------------------------
    # TX service loop (adapter side)
    # ------------------------------------------------------------------

    def _tx_service(self) -> None:
        fifo = self.send_fifo
        pkt = fifo.take_armed()
        if pkt is None:
            self._tx_scheduled = False
            return
        sim = self.sim
        now = sim.now
        tx_free = self._tx_free
        start = now if now > tx_free else tx_free
        wire_bytes = pkt.wire_bytes
        dma = wire_bytes / self._mc_dma_rate
        wire = wire_bytes / self._link_rate
        gapped = wire + self._msmu_gap
        occupancy = dma if dma > gapped else gapped
        if occupancy < self._i860_tx_occupancy:
            occupancy = self._i860_tx_occupancy
        latency = dma + self._i860_tx_latency + wire
        if self.faults is not None:
            stall = self.faults.tx_stall_us(pkt, now)
            if stall > 0.0:
                # injected send-DMA stall: the i860 holds this packet (and
                # everything behind it) for ``stall`` microseconds
                occupancy += stall
                latency += stall
                self.stats.count("tx_stalled_fault")
        tx_free = start + occupancy
        self._tx_free = tx_free
        self._c_tx_packets.value += 1
        self._c_tx_bytes.value += wire_bytes
        exit_at = start + latency
        if self.obs is not None:
            #: cumulative TX-engine occupancy; the metrics sampler turns
            #: deltas of this into per-period adapter utilization
            self.tx_busy_us += occupancy
            # inlined mark_packet x2: one span lookup for both marks
            span = self.obs.spans.get(pkt.trace_id)
            if span is not None:
                marks = span.marks
                if "wire_exit" in marks:
                    span.retransmit(start)  # go-back-N re-entering TX
                marks["dma_start"] = start
                marks["wire_exit"] = exit_at
        self.switch.inject(pkt, exit_at)
        if fifo._armed:
            delay = tx_free - now
            sim.schedule(delay if delay > 0.0 else 0.0, self._tx_service_cb)
        else:
            self._tx_scheduled = False

    # ------------------------------------------------------------------
    # RX path (called by the switch)
    # ------------------------------------------------------------------

    def accept(self, packet: Packet, arrive_at: float) -> None:
        """Switch-facing, at injection: take a packet that reaches this
        adapter at ``arrive_at``.

        The CRC verdict and the injected ``rx_overflow`` draw depend on
        nothing before the arrival, so they are decided here, and the
        packet's place in the event order is drawn.  The packet is settled
        at once if no pending packet arrives before it, none injected
        later can overtake it (only a fabric hold past the destination
        link's next packet allows that), and the receive FIFO has room
        now: arrivals then come in injection order and host pops only
        free slots, so the FIFO verdict and the RX DMA at the arrival are
        known.  Otherwise it joins :attr:`pending` for :meth:`settle`.
        """
        sim = self.sim
        now = sim.now
        # the instant an event queued now for arrive_at would run at
        arrive = now + (arrive_at - now)
        # inlined checksum_ok: -1 (one compare) unless the corrupt fault
        # stamped the CRC of the contents it then damaged
        cs = packet.checksum
        if cs >= 0 and cs != packet.compute_checksum():
            # a packet corrupted in the fabric is discarded,
            # indistinguishable from a loss to the layers above
            self._drop(packet, arrive, "rx_dropped_corrupt", "crc")
            return
        if self.faults is not None and self.faults.at_rx(packet, now):
            self._drop(packet, arrive, "rx_dropped_overflow", "overflow")
            return
        sim._seq = order = sim._seq + 1
        pending = self.pending
        rf = self.recv_fifo
        switch = self.switch
        if ((pending and pending[0][0] <= arrive)
                or arrive > (switch._dest_link_free[self.node_id]
                             + switch._latency)
                or rf.occupied >= rf.capacity):
            entry = [arrive, order, packet, False]
            if pending and entry < pending[-1]:
                insort(pending, entry)  # ahead of a held packet
            else:
                pending.append(entry)
            ev = self._arrival_event
            if ev is not None and not ev._ok:
                self._arm(now)
            return
        # rf.reserve(), open-coded (one call less per packet:
        # tests/am/test_host_budget.py)
        rf.occupied += 1
        if rf.check is not None:
            rf.check.on_reserve(rf)
        slot = self._dma(packet, arrive, order)
        ev = self._arrival_event
        if ev is not None and not ev._ok and not self._landing:
            # a host sleeps on the arrival event and no landing is
            # queued: queue this slot's (_land_at, open-coded)
            self._landing = True
            heappush(self._queue, [slot[0], order, self._land_cb, slot])

    def settle(self, until: float) -> None:
        """Settle the pending packets that arrive by ``until``, in order:
        the FIFO verdict at the arrival, then the RX DMA.  Every read of
        the FIFO that could see one, and every host pop, settles first."""
        pending = self.pending
        rf = self.recv_fifo
        n = 0
        for arrive, order, packet, _marked in pending:
            if arrive > until:
                break
            n += 1
            if rf.reserve():
                self._dma(packet, arrive, order)
            else:  # input-buffer overflow
                self._drop(packet, arrive, "rx_dropped_overflow",
                           "overflow")
        del pending[:n]

    def _dma(self, packet: Packet, arrive: float, order: int) -> tuple:
        """RX DMA into a reserved slot: queue and return the slot, stamped
        with the instant the host can see the packet."""
        dma = packet.wire_bytes / self._mc_dma_rate
        rx_free = self._rx_free
        start = arrive if arrive > rx_free else rx_free
        occ = self._i860_rx_occupancy
        self._rx_free = start + (dma if dma > occ else occ)
        visible_at = start + dma + self._i860_rx_latency
        self._c_rx_packets.value += 1
        if self.obs is not None:
            span = self.obs.spans.get(packet.trace_id)  # inlined mark_packet
            if span is not None:
                span.marks["visible"] = visible_at
        # the instant an event queued at the arrival would run at
        slot = (arrive + (visible_at - arrive), order, packet)
        rf = self.recv_fifo
        rf.slots.append(slot)
        if rf.check is not None:
            rf.check.on_deliver(rf)
        return slot

    def _drop(self, packet: Packet, arrive: float, counter: str,
              reason: str) -> None:
        self.stats.count(counter)
        if arrive > self._last_drop:
            self._last_drop = arrive
        if self.obs is not None:
            self.obs.packet_dropped(packet, reason)

    def _land(self, when: float, order: int,
              packet: Optional[Packet]) -> None:
        """A landing at ``(when, order)``: a slot a blocked host has not
        seen becomes visible, so fire the arrival event; or, without a
        packet, a pending packet arrives, so settle it and re-arm."""
        ev = self._arrival_event
        if packet is None:
            self.settle(when)
            if ev is not None and not ev._ok:
                self._arm(when)
            return
        self._landing = False
        if ev is not None and not ev._ok:  # Event.triggered, per landing
            ev.succeed(packet)

    def _last_stamp(self, until: float) -> float:
        """Where a drained ``Simulator.run(until)`` ends, at the latest:
        the last stamp or drop once arrivals by ``until`` are settled."""
        pending = self.pending
        if pending:
            self.settle(until)
            if pending:
                return pending[-1][0]  # past ``until``
        slots = self.recv_fifo.slots
        last = slots[-1][0] if slots else 0.0
        return last if last > self._last_drop else self._last_drop

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TB2Adapter(node={self.node_id}, "
            f"tx_staged={self.send_fifo.occupied}, "
            f"rx_slots={len(self.recv_fifo.slots)})"
        )
