"""MPL transport engine: message framing, matching, credit flow control.

Messages are fragmented into TB2 packets (30-byte MPL header, up to 224
payload bytes) and sent through the same adapter/switch path as AM; a
simple credit window with batched credit returns keeps the receive FIFO
from overflowing.  Matching is MPL-style: (source, tag) with -1 as the
"don't care" wildcard, in-order per (source, tag) pair.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.hardware.cache import flush_cost
from repro.hardware.packet import Packet, PacketKind
from repro.sim.primitives import TIMED_OUT, Delay, Timeout
from repro.sim.stats import StatRegistry

#: MPL's leaner data-packet framing: 22 bytes of header + the 8-byte
#: (tag, msg_id) envelope carried as two word args = 30 bytes on the wire,
#: which calibrates r_inf to 34.6 MB/s
MPL_HEADER_BYTES = 22
MPL_MTU = 224

#: credit window per destination, and how often the receiver returns credit
CREDIT_WINDOW = 96
CREDIT_BATCH = 16

ANY = -1  # wildcard source / tag


class _InMessage:
    """A message being reassembled at the receiver."""

    __slots__ = ("src", "tag", "total_len", "chunks", "received")

    def __init__(self, src: int, tag: int, total_len: int):
        self.src = src
        self.tag = tag
        self.total_len = total_len
        self.chunks: List[Tuple[int, bytes]] = []
        self.received = 0

    def add(self, offset: int, payload: bytes) -> bool:
        self.chunks.append((offset, payload))
        self.received += len(payload)
        return self.received >= self.total_len

    def assemble(self) -> bytes:
        out = bytearray(self.total_len)
        for off, chunk in self.chunks:
            out[off: off + len(chunk)] = chunk
        return bytes(out)


class MPLEngine:
    """Per-node MPL transport state (used by repro.mpl.api.MPL)."""

    def __init__(self, node, costs):
        self.node = node
        self.adapter = node.adapter
        self.sim = node.sim
        self.host = node.host
        self.costs = costs
        self.stats = StatRegistry(f"mpl[{node.id}].")
        self._next_msg_id = 1
        #: per-destination outstanding (un-credited) packets
        self._credits_used: Dict[int, int] = {}
        #: per-source packets received since last credit return
        self._credit_debt: Dict[int, int] = {}
        #: messages fully received but not yet matched by a receive
        self._unexpected: Deque[Tuple[int, int, bytes]] = deque()
        #: in-flight reassembly, keyed by (src, msg_id)
        self._assembly: Dict[Tuple[int, int], _InMessage] = {}

    # -- sending -----------------------------------------------------------

    def send_message(self, dst: int, data: bytes, tag: int):
        """Fragment + inject one message; returns when the source buffer is
        reusable (MPL copies eager-size messages internally)."""
        c = self.costs
        yield from self.node.compute(c.send_fixed)
        if len(data) <= c.eager_bytes:
            # internal copy into MPL's send buffer
            yield from self.node.compute(len(data) / c.buffer_copy_rate)
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        offsets = range(0, max(len(data), 1), MPL_MTU)
        npackets = len(offsets)
        staged = 0
        for off in offsets:
            payload = data[off: off + MPL_MTU]
            yield from self._credit_gate(dst)
            pkt = Packet(
                src=self.node.id, dst=dst, kind=PacketKind.MPL_DATA,
                args=(tag, msg_id), payload=payload, offset=off,
                total_len=len(data), header_bytes=MPL_HEADER_BYTES,
            )
            if self.adapter.obs is not None:
                self.adapter.obs.begin_message(pkt, self.sim.now)
            yield from self.node.compute(
                c.per_packet + flush_cost(pkt.wire_bytes, self.host)
            )
            while not self.adapter.host_can_stage(1):
                yield Delay(6.6)
            self.adapter.host_stage(pkt)
            self._credits_used[dst] = self._credits_used.get(dst, 0) + 1
            staged += 1
            if staged % 4 == 0 or staged == npackets:
                yield from self.node.compute(self.host.mc_pio)
                self.adapter.host_arm()
        self.stats.count("messages_sent")
        self.stats.count("packets_sent", npackets)

    def _credit_gate(self, dst: int):
        while self._credits_used.get(dst, 0) >= CREDIT_WINDOW:
            yield from self._wait_progress()

    # -- receiving ---------------------------------------------------------

    def match_unexpected(self, src: int, tag: int) -> Optional[bytes]:
        """Pop the first already-arrived message matching (src, tag)."""
        for i, (msrc, mtag, data) in enumerate(self._unexpected):
            if (src == ANY or msrc == src) and (tag == ANY or mtag == tag):
                del self._unexpected[i]
                return data
        return None

    def recv_message(self, src: int, tag: int):
        """Block until a matching message has fully arrived; returns bytes."""
        c = self.costs
        yield from self.node.compute(c.recv_fixed)
        while True:
            data = self.match_unexpected(src, tag)
            if data is not None:
                # data was placed incrementally as packets arrived; only
                # the descriptor hand-off remains
                yield from self.node.compute(c.match_cost)
                self.stats.count("messages_received")
                return data
            yield from self._wait_progress()

    # -- progress engine -----------------------------------------------------

    def poll(self):
        """Drain arrived packets (called from blocking MPL calls)."""
        yield from self.node.compute(self.costs.poll_cost)
        while self.adapter.host_recv_available() > 0:
            pkt = self.adapter.host_recv_consume()
            yield from self.node.compute(self.costs.per_packet_recv)
            yield from self._process(pkt)
            if self.adapter.host_recv_should_pop():
                yield from self.node.compute(self.host.mc_pio)
                self.adapter.host_recv_pop_batch()

    def _process(self, pkt: Packet):
        if pkt.kind == PacketKind.MPL_ACK:
            self._credits_used[pkt.src] = max(
                0, self._credits_used.get(pkt.src, 0) - pkt.args[0]
            )
            return
        if pkt.kind != PacketKind.MPL_DATA:
            raise AssertionError(
                f"MPL engine received foreign packet kind {pkt.kind}"
            )
        tag, msg_id = pkt.args
        key = (pkt.src, msg_id)
        msg = self._assembly.get(key)
        if msg is None:
            msg = self._assembly[key] = _InMessage(pkt.src, tag, pkt.total_len)
        # incremental placement into the destination buffer
        yield from self.node.compute(len(pkt.payload) / self.host.copy_rate)
        if msg.add(pkt.offset, pkt.payload):
            del self._assembly[key]
            self._unexpected.append((msg.src, msg.tag, msg.assemble()))
        # credit accounting (the return packet itself is cheap)
        debt = self._credit_debt.get(pkt.src, 0) + 1
        if debt >= CREDIT_BATCH:
            self._credit_debt[pkt.src] = 0
            yield from self._send_credit(pkt.src, debt)
        else:
            self._credit_debt[pkt.src] = debt

    def _send_credit(self, dst: int, n: int):
        ack = Packet(src=self.node.id, dst=dst, kind=PacketKind.MPL_ACK,
                     args=(n,), header_bytes=MPL_HEADER_BYTES)
        yield from self.node.compute(
            self.costs.credit_cost + self.host.mc_pio
        )
        while not self.adapter.host_can_stage(1):
            yield Delay(6.6)
        self.adapter.host_stage(ack)
        self.adapter.host_arm()
        self.stats.count("credits_returned", n)

    def _wait_progress(self):
        if self.adapter.host_recv_available() == 0:
            ev = self.adapter.arrival_event()
            res = yield Timeout(ev, 1_000_000.0)
            if res is TIMED_OUT:
                raise RuntimeError(
                    f"MPL on node {self.node.id} stalled 1 s; "
                    "credit deadlock?"
                )
        yield from self.poll()
