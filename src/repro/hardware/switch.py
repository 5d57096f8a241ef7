"""The SP's high-performance switch (§1.2).

A cut-through multistage network: ~0.5 us hardware latency per traversal,
40 MB/s links, four routes between every pair of nodes.  The sending
adapter already paces packets at input-link rate (its TX occupancy), so the
switch model adds (a) the fixed hardware latency and (b) serialization on
the *destination* link when several senders converge on one receiver —
which is exactly the situation the paper calls out for MPICH's generic
``MPI_Alltoall`` in the FT benchmark (§4.4).

Fabric faults come from one place: the ``faults`` attribute, a
:class:`~repro.faults.injector.FaultInjector` that ``install_faults``
builds from a seeded ``FaultPlan``.  It drops, duplicates, reorders or
corrupts at most one way per packet and records each fault in its ledger;
every packet then takes the one delivery path the fault-free claims take.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.hardware.packet import Packet
from repro.hardware.params import SwitchParams
from repro.sim import Simulator
from repro.sim.stats import StatRegistry


class Switch:
    """Routes packets between adapters registered with :meth:`attach`."""

    def __init__(self, sim: Simulator, params: SwitchParams):
        self.sim = sim
        self.params = params
        self._adapters: Dict[int, "TB2Adapter"] = {}  # noqa: F821
        #: when each destination's output link next frees up
        self._dest_link_free: Dict[int, float] = {}
        self.stats = StatRegistry("switch.")
        # per-packet counter resolved once (hot path)
        self._c_packets_routed = self.stats.counter("packets_routed")
        # per-packet constants (SwitchParams is frozen, so never stale)
        self._latency = params.latency
        self._link_rate = params.link_rate
        #: observability hub (set by Observatory.attach; None = untraced)
        self.obs = None
        #: queue-wait histogram resolved once per hub (hot path)
        self._queue_hist = None
        #: optional :class:`~repro.faults.injector.FaultInjector` (set by
        #: ``install_faults``; duck-typed so the hardware stays
        #: independent of ``repro.faults``): the fabric's one fault
        #: source — drop, duplicate, reorder or corrupt, one per packet
        self.faults = None
        #: cumulative wire time serialized onto each destination link
        #: (µs); only accumulated under an attached Observatory — the
        #: metrics sampler differences it into per-link utilization
        self.link_busy_us: Dict[int, float] = {}

    def attach(self, node_id: int, adapter: "TB2Adapter") -> None:  # noqa: F821
        if node_id in self._adapters:
            raise ValueError(f"node {node_id} already attached")
        self._adapters[node_id] = adapter
        self._dest_link_free[node_id] = 0.0
        self.link_busy_us[node_id] = 0.0

    @property
    def node_count(self) -> int:
        return len(self._adapters)

    @property
    def in_flight(self) -> int:
        """Packets injected and not yet visible to their host (pending,
        or in a slot stamped from now on, once arrivals are settled): the
        metrics sampler's ``switch.in_flight`` gauge.  The sampler reads
        it before the events of its instant, so a packet stamped at that
        very instant still counts."""
        now = self.sim.now
        n = 0
        for adapter in self._adapters.values():
            pending = adapter.pending
            if pending:
                adapter.settle(now)
                n += len(pending)
            for slot in reversed(adapter.recv_fifo.slots):
                if slot[0] < now:
                    break
                n += 1
        return n

    def inject(self, packet: Packet, wire_exit_time: float) -> None:
        """Accept a packet whose input-link serialization completes at
        ``wire_exit_time`` (sender adapter computed it); deliver it to the
        destination adapter after switch latency plus any destination-link
        queueing.

        The fabric's fault, if any, is decided here.  Every packet that
        survives it, and a duplicate's stray copy, goes to the destination
        adapter's :meth:`~TB2Adapter.accept` at once, with the instant it
        arrives there: no event is spent on the packet in the fabric.
        """
        adapters = self._adapters
        if packet.dst not in adapters:
            raise KeyError(f"packet addressed to unattached node {packet.dst}")
        self._c_packets_routed.value += 1
        reorder_hold = 0.0
        duplicate: Optional[Packet] = None
        dup_delay = 0.0
        faults = self.faults
        if faults is not None:
            act = faults.at_switch(packet, self.sim.now)
            if act is not None:
                if act.kind == "drop":
                    self.stats.count("packets_dropped_fault")
                    if self.obs is not None:
                        self.obs.packet_dropped(packet, "fault_drop")
                    return
                if act.kind == "corrupt":
                    # the corrupted clone travels instead of the original;
                    # the receive adapter's CRC check will reject it
                    packet = act.packet
                    self.stats.count("packets_corrupted_fault")
                elif act.kind == "reorder":
                    reorder_hold = act.delay_us
                    self.stats.count("packets_reordered_fault")
                elif act.kind == "duplicate":
                    duplicate = act.packet
                    dup_delay = act.delay_us
                    self.stats.count("packets_duplicated_fault")
        dst = packet.dst
        dlf = self._dest_link_free
        wire_time = packet.wire_bytes / self._link_rate
        link_free = dlf[dst]
        start = wire_exit_time if wire_exit_time > link_free else link_free
        queueing = start - wire_exit_time
        if queueing > 0:
            self.stats.count("dest_link_queued")
        dlf[dst] = start + wire_time
        deliver_at = start + self._latency + reorder_hold
        if self.obs is not None:
            self.link_busy_us[dst] += wire_time
            h = self._queue_hist
            if h is None:
                h = self._queue_hist = self.obs.hist("switch.queue_us")
            h.observe(queueing)
            span = self.obs.spans.get(packet.trace_id)  # inlined mark_packet
            if span is not None:
                span.marks["sw_deliver"] = deliver_at
                span.queued_us += queueing
        adapters[dst].accept(packet, deliver_at)
        if duplicate is not None:
            # The fabric's stray copy trails the original by the rule's
            # delay, but it still occupies the destination link for its own
            # wire time — otherwise the duplicate overlaps the next
            # packet's serialization and the link briefly carries two
            # packets at once.  Queueing behind earlier traffic counts
            # toward ``dest_link_queued`` like any other packet.
            dup_dst = duplicate.dst
            dup_ready = start + dup_delay
            dup_link_free = dlf[dup_dst]
            dup_start = dup_link_free if dup_link_free > dup_ready else dup_ready
            if dup_start > dup_ready:
                self.stats.count("dest_link_queued")
            dlf[dup_dst] = dup_start + wire_time
            self.stats.count("dup_link_charged")
            if self.obs is not None:
                self.link_busy_us[dup_dst] += wire_time
            adapters[dup_dst].accept(duplicate, dup_start + self._latency)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Switch({self.node_count} nodes)"
