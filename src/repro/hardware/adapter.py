"""The TB2 communication adapter (§1.2, §2.1).

Transmit path: the host stages packets into the send FIFO (host DRAM),
flushes their cache lines, and arms them by storing lengths into the packet
length array across the MicroChannel.  The i860's scan loop notices armed
slots and services packets one at a time: DMA the entry across the
MicroChannel into adapter RAM, push it through the MSMU onto the switch
link.  Each service is modelled with an *occupancy* (pacing the next
packet — set by the larger of DMA time, i860 per-packet work, and wire
serialization) and a *latency* (this packet's transit).

Receive path: the MSMU accepts a packet from the switch; if the receive
FIFO is full the packet is **dropped** (input-buffer overflow — the loss
case §2.2's flow control exists for).  Otherwise the adapter DMAs it into
the host-resident receive queue, where it becomes visible to polling
software after the RX latency.  The packet enters the receive FIFO when it
is accepted, stamped with that visible instant; a polling host compares
the stamp with its clock, and an event marks the instant only where a
host is blocked on :meth:`TB2Adapter.arrival_event`.

Software above charges its own CPU costs (cache flushes, PIO stores,
polling); this module charges only adapter-side time.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

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
        self._deliver_cb = self._deliver
        self._land_cb = self._land
        #: the simulator's heap, which a ``_land`` goes straight into (its
        #: instant is a stamp, not ``now`` plus a delay)
        self._queue = sim._queue
        #: a ``_land`` is queued (at most one at a time)
        self._landing = False
        #: hand-off-path packets to this adapter still in the fabric
        #: (maintained by the switch); while any is, no packet is
        #: accepted ahead of it
        self.handoffs = 0
        # a drained Simulator.run ends at the last stamp, as it would at
        # a landing event
        sim._stamp_sources.append(self._last_stamp)

    # ------------------------------------------------------------------
    # Host-facing API (costs are charged by the calling software layer)
    # ------------------------------------------------------------------

    def host_can_stage(self, n: int = 1) -> bool:
        """Whether the send FIFO has ``n`` free entries."""
        return self.send_fifo.free_entries >= n

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
        """Return consumed entries to the adapter (caller charges ~1 us PIO)."""
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
        it queues the ``_land`` that fires it, if a slot is already
        accepted and not yet visible.
        """
        ev = self._arrival_event
        if ev is None or ev._ok:
            ev = self._arrival_event = Event(self.sim,
                                             self._arrival_event_name)
        if not self._landing:
            now = self.sim.now
            for slot in self.recv_fifo.slots:
                if slot[0] > now:
                    self._land_at(slot)
                    break
        return ev

    def _land_at(self, slot: tuple) -> None:
        """Queue the ``_land`` that fires the arrival event when receive
        ``slot`` becomes visible, in the slot's place in the event order,
        unless it came by the hand-off path, whose ``_deliver`` fires
        it."""
        if slot[1] is None:
            return
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

    def on_wire_arrival(self, packet: Packet) -> None:
        """Switch-facing: accept or drop (CRC failure, FIFO overflow)."""
        # inlined checksum_ok: -1 (one compare) unless the corrupt fault
        # stamped the CRC of the contents it then damaged
        cs = packet.checksum
        if cs >= 0 and cs != packet.compute_checksum():
            # Hardware CRC check: a packet corrupted in the fabric is
            # discarded here, indistinguishable from a loss to the layers
            # above — §2.2's go-back-N recovers it.
            self.stats.count("rx_dropped_corrupt")
            if self.obs is not None:
                self.obs.packet_dropped(packet, "crc")
            return
        sim = self.sim
        now = sim.now
        if ((self.faults is not None and self.faults.at_rx(packet, now))
                or not self.recv_fifo.reserve()):
            # Input-buffer overflow (real or injected): the packet is
            # lost; §2.2's sequence numbers + NACK machinery must
            # recover it.
            self.stats.count("rx_dropped_overflow")
            if self.obs is not None:
                self.obs.packet_dropped(packet, "overflow")
            return
        dma = packet.wire_bytes / self._mc_dma_rate
        rx_free = self._rx_free
        start = now if now > rx_free else rx_free
        occ = self._i860_rx_occupancy
        self._rx_free = start + (dma if dma > occ else occ)
        visible_at = start + dma + self._i860_rx_latency
        self._c_rx_packets.value += 1
        if self.obs is not None:
            span = self.obs.spans.get(packet.trace_id)  # inlined mark_packet
            if span is not None:
                span.marks["visible"] = visible_at
        # the stamp is the instant sim.at's arithmetic gives _deliver; no
        # order: that event, not a _land, marks the landing
        stamp = sim.at(visible_at, self._deliver_cb, packet)[0]
        self.recv_fifo.deliver(packet, stamp, None)

    def accept_ahead(self, packet: Packet, arrive_at: float) -> bool:
        """Switch-facing, at injection: accept now a packet that reaches
        this adapter at ``arrive_at``, and queue it in the receive FIFO
        stamped with the instant it becomes visible to the host.

        The switch asks only for a packet no fault can touch, with an
        unstamped CRC and no hand-off-path packet to this adapter ahead of
        it.  Then what :meth:`on_wire_arrival` would decide at
        ``arrive_at`` is already known: arrivals here keep injection order
        and host pops only lower the receive FIFO's occupancy, so a slot
        free now is free then, and the RX DMA queue sees the same packets
        in the same order.  The slot is reserved now and the RX timing
        computed now, with the arithmetic of the hand-off path's two
        ``sim.at`` round trips, so the stamp is the float that path gives.
        No event is spent on the packet unless a host is blocked on the
        arrival event with no landing queued (:meth:`_land_at`).  Returns
        False, accepting nothing, when a fault injector is planted here or
        the FIFO is full now; the switch then hands the packet off at
        ``arrive_at``.
        """
        rf = self.recv_fifo
        if self.faults is not None or not rf.reserve():
            return False
        sim = self.sim
        now = sim.now
        # on_wire_arrival's RX timing, open-coded (one call less per
        # packet: tests/am/test_host_budget.py), at the instant its
        # hand-off would run by sim.at's arithmetic (the wire exit is
        # never behind the clock)
        now = now + (arrive_at - now)
        dma = packet.wire_bytes / self._mc_dma_rate
        rx_free = self._rx_free
        start = now if now > rx_free else rx_free
        occ = self._i860_rx_occupancy
        self._rx_free = start + (dma if dma > occ else occ)
        visible_at = start + dma + self._i860_rx_latency
        self._c_rx_packets.value += 1
        if self.obs is not None:
            span = self.obs.spans.get(packet.trace_id)  # inlined mark_packet
            if span is not None:
                span.marks["visible"] = visible_at
        # the stamp is the instant, and seq the place in the event order,
        # that a landing event queued now would take
        stamp = now + (visible_at - now)
        sim._seq = seq = sim._seq + 1
        # rf.deliver(packet, stamp, seq), open-coded (one call less per
        # packet)
        slot = (stamp, seq, packet)
        rf.slots.append(slot)
        if rf.check is not None:
            rf.check.on_deliver(rf)
        ev = self._arrival_event
        if ev is not None and not ev._ok and not self._landing:
            # a host sleeps on the arrival event and no landing is
            # queued: queue this slot's (_land_at, open-coded)
            self._landing = True
            heappush(self._queue, [stamp, seq, self._land_cb, slot])
        return True

    def _deliver(self, packet: Packet) -> None:
        """A hand-off-path packet becomes visible: fire the arrival
        event."""
        ev = self._arrival_event
        if ev is not None and not ev._ok:  # Event.triggered, per arrival
            ev.succeed(packet)

    def _land(self, stamp: float, order: int, packet: Packet) -> None:
        """The first slot a blocked host has not seen, ``(stamp, order,
        packet)``, becomes visible: fire the arrival event."""
        self._landing = False
        ev = self._arrival_event
        if ev is not None and not ev._ok:  # Event.triggered, per landing
            ev.succeed(packet)

    def _last_stamp(self) -> float:
        """The stamp of the last slot queued (0.0 with none): the instant
        a drained ``Simulator.run`` ends at, at the latest."""
        slots = self.recv_fifo.slots
        return slots[-1][0] if slots else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TB2Adapter(node={self.node_id}, "
            f"tx_staged={self.send_fifo.occupied}, "
            f"rx_slots={len(self.recv_fifo.slots)})"
        )
