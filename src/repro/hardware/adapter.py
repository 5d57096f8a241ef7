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
software after the RX latency.

Software above charges its own CPU costs (cache flushes, PIO stores,
polling); this module charges only adapter-side time.
"""

from __future__ import annotations

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
        charged by the poller)."""
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
        """Packets visible to the host right now."""
        return len(self.recv_fifo.visible)

    def arrival_event(self) -> Event:
        """A one-shot event that fires at the next packet delivery.

        Blocking software (e.g. a store waiting for its ack) waits on this
        instead of burning simulated poll cycles; the timing is identical
        because nothing else runs on the node's CPU meanwhile.
        """
        if self._arrival_event is None or self._arrival_event.triggered:
            self._arrival_event = self.sim.event(self._arrival_event_name)
        return self._arrival_event

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
        sim.at(visible_at, self._deliver_cb, packet)

    def _deliver(self, packet: Packet) -> None:
        self.recv_fifo.deliver(packet)
        ev = self._arrival_event
        if ev is not None and not ev._ok:  # Event.triggered, per arrival
            ev.succeed(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TB2Adapter(node={self.node_id}, "
            f"tx_staged={self.send_fifo.occupied}, "
            f"rx_visible={len(self.recv_fifo.visible)})"
        )
