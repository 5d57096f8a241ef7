"""LogP-style NIC for the Table-4 peer machines (CM-5, Meiko CS-2, U-Net).

The paper characterizes these machines by three numbers — per-message host
overhead, one-way latency, and link bandwidth — which is exactly a LogP
model.  The NIC therefore: (a) serializes outgoing packets at the link
rate, (b) delivers them after the configured latency, and (c) leaves the
per-message host overheads to the software layer (the per-machine AM
implementation charges them).  Delivery is reliable and ordered.

The same :class:`~repro.hardware.packet.Packet` type is used so the AM API
above is machine-independent, exactly as Generic Active Messages intends.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.hardware.packet import Packet
from repro.hardware.params import GenericNICParams
from repro.sim import Simulator
from repro.sim.primitives import Event
from repro.sim.stats import StatRegistry


class GenericFabric:
    """The shared interconnect: routes between GenericNIC endpoints."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._nics: Dict[int, "GenericNIC"] = {}
        self.stats = StatRegistry("fabric.")

    def attach(self, node_id: int, nic: "GenericNIC") -> None:
        """Register a NIC endpoint on the fabric."""
        if node_id in self._nics:
            raise ValueError(f"node {node_id} already attached")
        self._nics[node_id] = nic

    def deliver(self, packet: Packet, when: float) -> None:
        """Schedule a packet's arrival at its destination NIC."""
        self.stats.count("packets_routed")
        self.sim.at(when, self._nics[packet.dst].on_arrival, packet)


class GenericNIC:
    """One node's interface on a :class:`GenericFabric`."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: GenericNICParams,
        fabric: GenericFabric,
    ):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.fabric = fabric
        fabric.attach(node_id, self)
        self._tx_free = 0.0
        self._rx_queue: Deque[Packet] = deque()
        self._arrival_event: Optional[Event] = None
        self.stats = StatRegistry(f"nic[{node_id}].")
        #: observability hub (set by Observatory.attach; None = untraced)
        self.obs = None

    # -- host-facing -------------------------------------------------------

    def host_send(self, packet) -> None:
        """Hand a packet to the NIC.  The calling software layer has already
        charged its ``o_send``; the NIC adds serialization + latency.

        LogP-style accounting: small control messages cost only ``o`` and
        ``L`` (their handling is folded into the overheads, as in the
        machines' own AM papers); link serialization is charged for bulk
        payload bytes only.
        """
        payload = getattr(packet, "payload", b"")
        wire = len(payload) / self.params.rate
        start = max(self.sim.now, self._tx_free)
        self._tx_free = start + wire
        self.stats.count("tx_packets")
        self.stats.count("tx_bytes", packet.wire_bytes)
        arrive_at = start + wire + self.params.latency
        if self.obs is not None:
            self.obs.packet_staged(packet, self.sim.now)
            self.obs.mark_packet(packet, "wire_exit", start + wire)
            # the LogP fabric has no separate switch stage: deliver time
            # doubles as the switch hand-off
            self.obs.mark_packet(packet, "sw_deliver", arrive_at)
            self.obs.mark_packet(packet, "visible", arrive_at)
        self.fabric.deliver(packet, arrive_at)

    def host_recv_consume(self) -> Packet:
        """Pop the head of the receive queue."""
        pkt = self._rx_queue.popleft()
        if self.obs is not None:
            self.obs.mark_packet(pkt, "consume", self.sim.now)
        return pkt

    def host_recv_available(self) -> int:
        """Messages awaiting the host."""
        return len(self._rx_queue)

    def arrival_event(self) -> Event:
        """One-shot event firing at the next delivery."""
        if self._arrival_event is None or self._arrival_event.triggered:
            self._arrival_event = self.sim.event(f"nic[{self.node_id}].arrival")
        return self._arrival_event

    # -- fabric-facing -----------------------------------------------------

    def on_arrival(self, packet: Packet) -> None:
        """Fabric-facing delivery into the receive queue."""
        self._rx_queue.append(packet)
        self.stats.count("rx_packets")
        if self._arrival_event is not None and not self._arrival_event.triggered:
            self._arrival_event.succeed(packet)
