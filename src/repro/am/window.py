"""Sliding-window state machines for one (peer, channel) direction (§2.2).

The sender keeps every unacknowledged packet for retransmission; the
receiver accepts only the expected sequence number (go-back-N).  Packets of
one chunk share the chunk's base sequence number and are ordered within the
chunk by their address offsets; the window slides by the number of packets
in the chunk and the whole chunk is covered by a single acknowledgement.

Invariants (property-tested in ``tests/am/test_window_properties.py``):

* the receiver delivers transfer units exactly once, in sequence order;
* ``in_flight <= window`` at the sender, always;
* a cumulative ack never moves backwards.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hardware.packet import Packet


class AckBeyondWindowError(ValueError):
    """A cumulative ack claimed sequence numbers never allocated."""


class MidChunkAckError(ValueError):
    """A cumulative ack landed strictly inside a saved transfer unit.

    Chunks slide the window as one unit (§2.2): the receiver only ever
    advertises unit-aligned values, so a mid-chunk ack means the peers
    have desynchronized.  Accepting it silently would strand the unit's
    packets in the retransmission buffer below ``base``, where go-back-N
    can no longer reach them.
    """


class SendWindow:
    """Sender side: sequence allocation, credit, retransmission buffer."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.next_seq = 0
        self.base = 0  # oldest unacknowledged sequence number
        #: seq -> packets saved for retransmission (one entry per transfer
        #: unit: a single packet or a whole chunk)
        self._saved: Dict[int, List[Packet]] = {}
        #: window-invariant checker (repro.check), None when unchecked
        self.check = None

    @property
    def in_flight(self) -> int:
        """Unacknowledged sequence numbers currently outstanding."""
        return self.next_seq - self.base

    def can_send(self, npackets: int = 1) -> bool:
        """Whether the window has credit for ``npackets`` more."""
        return self.in_flight + npackets <= self.window

    def allocate(self, npackets: int = 1) -> int:
        """Claim ``npackets`` sequence numbers; returns the base seq."""
        if not self.can_send(npackets):
            raise RuntimeError(
                f"window overflow: {self.in_flight}+{npackets} > {self.window}"
            )
        seq = self.next_seq
        self.next_seq += npackets
        if self.check is not None:
            self.check.on_allocate(self, seq, npackets)
        return seq

    def save(self, seq: int, packets: List[Packet]) -> None:
        """Keep a transfer unit for possible go-back-N retransmission.

        The caller's list and packets are kept by reference, not copied:
        they are the objects already on their way through the send FIFO,
        and nothing writes to a packet once it is staged.  Retransmission
        clones before it re-stamps acknowledgements (see
        :meth:`unacked_from`), so only resent packets pay for a copy.
        Under the sanitizer, :class:`~repro.check.core.SendWindowCheck`
        checks that a saved unit is unchanged when its ack frees it.
        """
        self._saved[seq] = packets
        if self.check is not None:
            self.check.on_save(self, seq, len(packets))

    def on_ack(self, ack: int) -> int:
        """Cumulative ack: all seq < ack received.  Returns packets freed.

        Raises :class:`AckBeyondWindowError` for an ack past ``next_seq``
        and :class:`MidChunkAckError` for one landing strictly inside a
        saved transfer unit — both indicate peer desynchronization and
        must fail loudly rather than corrupt the retransmission buffer.
        """
        if ack <= self.base:
            return 0
        if self.check is not None:
            # before the structural guards, so a violating ack is named
            # by the checker rather than surfacing as a bare exception
            self.check.on_ack(self, ack)
        if ack > self.next_seq:
            raise AckBeyondWindowError(
                f"ack {ack} beyond next_seq {self.next_seq} (corrupt peer?)"
            )
        saved = self._saved
        acked = []
        freed = 0
        # one pass: every unit below the ack is checked before any is freed
        for s, unit in saved.items():
            if s < ack:
                n = len(unit)
                if ack < s + n:
                    raise MidChunkAckError(
                        f"ack {ack} splits transfer unit [{s}, {s + n}) "
                        f"(base={self.base})"
                    )
                acked.append(s)
                freed += n
        for s in acked:
            del saved[s]
        self.base = ack
        return freed

    def unacked_from(self, seq: int) -> List[Packet]:
        """All saved packets with sequence >= seq, in order (go-back-N).

        Returns the saved packets themselves, which may still be in
        flight; callers that put them back on the wire must clone them
        (see :meth:`~repro.hardware.packet.Packet.clone`) before
        re-stamping acks, so no copy already sent is ever written to.
        """
        out: List[Packet] = []
        for s in sorted(self._saved):
            if s >= seq:
                out.extend(self._saved[s])
        return out

    @property
    def has_unacked(self) -> bool:
        """Whether any saved packets still await acknowledgement."""
        return bool(self._saved)


class _ChunkAssembly:
    """Reassembly of one in-progress chunk at the receiver."""

    __slots__ = ("npackets", "received_offsets", "packets")

    def __init__(self, npackets: int):
        self.npackets = npackets
        self.received_offsets: set = set()
        self.packets: List[Packet] = []

    def add(self, pkt: Packet) -> str:
        """Returns 'duplicate', 'partial', or 'complete'."""
        if pkt.offset in self.received_offsets:
            # a go-back-N retransmission re-sends offsets that survived
            # the original loss; they must not be double-counted
            return "duplicate"
        self.received_offsets.add(pkt.offset)
        self.packets.append(pkt)
        return ("complete" if len(self.received_offsets) == self.npackets
                else "partial")


class RecvWindow:
    """Receiver side: in-sequence acceptance, chunk reassembly, ack duty."""

    def __init__(self, window: int, ack_threshold: int,
                 duty: Optional[set] = None):
        self.window = window
        self.ack_threshold = ack_threshold
        #: set shared with the owning endpoint.  The window adds itself
        #: when a poll may owe the peer work: an explicit ack
        #: (``unacked_count`` reached ``ack_threshold``) or a stall check
        #: (a chunk assembly started).  Only the owner removes it, once
        #: neither holds — so a window with work due is always in the set,
        #: and a poll with nothing due walks no peers.
        self.duty = duty if duty is not None else set()
        self.expected = 0
        #: how many accepted packets the peer hasn't been told about yet
        self.unacked_count = 0
        self._assembly: Optional[_ChunkAssembly] = None
        #: set when a gap is observed and cleared when expected advances,
        #: so one loss triggers one NACK rather than a storm
        self.nack_outstanding = False
        #: simulated time of the last packet accepted into a *partial*
        #: chunk assembly (maintained by the endpoint); a partial assembly
        #: with no arrivals past the stall threshold triggers a receiver-
        #: side NACK, because a mid-chunk loss produces no sequence gap
        #: (all chunk packets share the base seq) and would otherwise wait
        #: for the sender's exponentially backed-off keep-alive.
        self.assembly_progress_t: Optional[float] = None
        #: when the last stalled-assembly NACK went out (rate limiting;
        #: re-arms if the NACK itself is lost)
        self.stall_nack_t: float = float("-inf")
        #: delivery-order checker (repro.check), None when unchecked
        self.check = None

    @property
    def has_partial_assembly(self) -> bool:
        """Whether a chunk is mid-reassembly (some offsets still missing)."""
        return self._assembly is not None

    def accept(self, pkt: Packet) -> Tuple[str, Optional[List[Packet]]]:
        """Classify an arriving sequenced packet.

        Returns ``(verdict, completed)`` where verdict is one of
        ``deliver`` (completed holds the packet(s) of the finished transfer
        unit, in arrival order), ``partial`` (accepted, chunk incomplete),
        ``duplicate`` (old traffic; re-ack), or ``nack`` (gap: caller sends
        a NACK for ``self.expected`` unless one is already outstanding).
        """
        if pkt.seq < self.expected:
            return "duplicate", None
        if pkt.seq > self.expected:
            return "nack", None
        # pkt.seq == expected
        if pkt.chunk_packets == 1:
            self.expected += 1
            self.unacked_count += 1
            if self.unacked_count >= self.ack_threshold:
                self.duty.add(self)
            self.nack_outstanding = False
            if self.check is not None:
                self.check.on_deliver(self, pkt.seq, 1)
            return "deliver", [pkt]
        if self._assembly is None:
            self._assembly = _ChunkAssembly(pkt.chunk_packets)
            self.duty.add(self)
        status = self._assembly.add(pkt)
        if status == "duplicate":
            return "duplicate", None
        if status == "complete":
            done = self._assembly
            self._assembly = None
            self.assembly_progress_t = None
            self.expected += pkt.chunk_packets
            self.unacked_count += pkt.chunk_packets
            if self.unacked_count >= self.ack_threshold:
                self.duty.add(self)
            self.nack_outstanding = False
            if self.check is not None:
                self.check.on_deliver(self, pkt.seq, pkt.chunk_packets)
            return "deliver", done.packets
        return "partial", None

    def ack_value(self) -> int:
        """The cumulative ack to advertise; resets the explicit-ack debt."""
        self.unacked_count = 0
        return self.expected

    @property
    def explicit_ack_due(self) -> bool:
        """§2.2: explicit ack once a quarter of the window is unacked."""
        return self.unacked_count >= self.ack_threshold
