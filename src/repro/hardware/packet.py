"""The 256-byte network packet: 32-byte header + up to 224 bytes of payload.

The header layout follows §2.2 of the paper: destination/route, packet
kind, sequence number, piggybacked acknowledgement, AM handler id, up to
four word arguments, and — for bulk-transfer packets — the destination
address offset used to order packets within a chunk.

We keep the header as typed fields (not serialized bytes); the *wire size*
charged by the hardware model is ``header + len(payload)`` which is what
the TB2 length array expresses ("the number of bytes to be transferred for
each packet").
"""

from __future__ import annotations

from enum import IntEnum
from operator import attrgetter
from struct import Struct
from typing import Tuple
from zlib import crc32 as _crc32

from repro.hardware.params import PACKET_HEADER_BYTES, PACKET_PAYLOAD_BYTES

#: one packer per argument count (0-4 word args): 13 header fields + args,
#: each a little-endian signed 64-bit int — the exact byte stream the
#: original per-field ``int.to_bytes(8, "little", signed=True)`` loop fed
#: to the CRC, so stamped checksums are unchanged
_CRC_PACKERS = tuple(Struct(f"<{13 + n}q").pack for n in range(5))


class PacketKind(IntEnum):
    """What the flow-control layer should do with a packet."""

    REQUEST = 1       # am_request_M
    REPLY = 2         # am_reply_M
    STORE_DATA = 3    # one packet of an am_store / am_store_async chunk
    GET_REQUEST = 4   # am_get's initial request
    GET_DATA = 5      # one packet of the data coming back from a get
    ACK = 6           # explicit acknowledgement
    NACK = 7          # negative acknowledgement (go-back-N trigger)
    RAW = 8           # flow-control-free path (the 47 us baseline)
    KEEPALIVE = 9     # keep-alive probe (§2.2)
    MPL_DATA = 10     # IBM MPL data traffic (independent protocol stack)
    MPL_ACK = 11      # MPL credit return


#: kinds that consume a slot in the sender's sliding window / need acking
SEQUENCED_KINDS = frozenset(
    {
        PacketKind.REQUEST,
        PacketKind.REPLY,
        PacketKind.STORE_DATA,
        PacketKind.GET_REQUEST,
        PacketKind.GET_DATA,
    }
)


#: the packet's fields, in constructor and comparison order (the derived
#: ``wire_bytes`` / ``is_sequenced`` are not fields)
FIELDS = (
    "src", "dst", "kind", "seq", "ack_req", "ack_rep", "channel", "handler",
    "args", "payload", "addr", "offset", "total_len", "chunk_packets",
    "op_token", "header_bytes", "trace_id", "checksum",
)

_field_values = attrgetter(*FIELDS)
_new = object.__new__


class Packet:
    """One packet as it exists in a FIFO entry and on the wire.

    A slotted class with a hand-written constructor: a bulk transfer
    builds one per 224 payload bytes, so construction is one Python call
    and no per-instance dict.

    Fields:

    * ``seq`` — sliding-window sequence number (packets of one chunk share
      the chunk's base sequence number, §2.2).
    * ``ack_req`` / ``ack_rep`` — piggybacked cumulative acks: "every
      request-channel (resp. reply-channel) sequence number below this
      value has been received from you".  -1 = no information
      (control/raw packets).
    * ``channel`` — which traffic class ``seq`` belongs to (requests and
      replies use separate windows, §2.2): 0 = request, 1 = reply.
    * ``handler`` — AM handler id (index into the receiver's table).
    * ``args`` — up to four 32-bit word arguments (§1.1).
    * ``payload`` — payload bytes for bulk transfers (<= 224).
    * ``addr`` — destination base address of the bulk transfer.
    * ``offset`` — destination byte offset within the bulk transfer
      (orders packets within a chunk, §2.2).
    * ``total_len`` — total bulk-transfer length (receiver-side completion
      detection).
    * ``chunk_packets`` — how many window sequence numbers this packet's
      transfer unit consumes (36 for a full chunk, 1 for a plain
      request/reply).
    * ``op_token`` — opaque token identifying the bulk operation at its
      initiator.
    * ``header_bytes`` — on-wire header size; AM uses the full 32 bytes,
      MPL's leaner data framing (30 bytes) is what gives it the marginally
      higher 34.6 MB/s asymptote of Table 3.
    * ``trace_id`` — observability correlation id (0 = untracked);
      assigned once by the :class:`~repro.obs.core.Observatory` and
      carried end-to-end so every layer's marks land on the same
      message-lifecycle span.  Not a wire field.
    * ``checksum`` — header/payload CRC, modelling the TB2's hardware
      packet CRC.  -1 = never altered in flight: the check passes on one
      compare.  The fabric's corrupt fault, the only path that changes a
      packet's bytes after staging, stamps the CRC of the original
      contents on the copy it damages; the receiving adapter verifies it
      and a mismatch drops the packet exactly like a loss so §2.2's
      go-back-N recovers it.  Part of the 32-byte header.

    ``wire_bytes`` and ``is_sequenced`` are derived once at construction:
    wire size and sequencing never change after staging (the corrupt
    fault flips payload bytes but preserves length).
    """

    __slots__ = FIELDS + ("wire_bytes", "is_sequenced")

    def __init__(self, src: int, dst: int, kind: PacketKind, seq: int = 0,
                 ack_req: int = -1, ack_rep: int = -1, channel: int = 0,
                 handler: int = 0, args: Tuple[int, ...] = (),
                 payload: bytes = b"", addr: int = 0, offset: int = 0,
                 total_len: int = 0, chunk_packets: int = 1,
                 op_token: int = 0, header_bytes: int = PACKET_HEADER_BYTES,
                 trace_id: int = 0, checksum: int = -1) -> None:
        npay = len(payload)
        if npay > PACKET_PAYLOAD_BYTES:
            raise ValueError(
                f"payload {npay} exceeds {PACKET_PAYLOAD_BYTES} bytes"
            )
        nargs = len(args)
        if nargs > 4:
            raise ValueError("AM packets carry at most four word arguments")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.ack_req = ack_req
        self.ack_rep = ack_rep
        self.channel = channel
        self.handler = handler
        self.args = args
        self.payload = payload
        self.addr = addr
        self.offset = offset
        self.total_len = total_len
        self.chunk_packets = chunk_packets
        self.op_token = op_token
        self.header_bytes = header_bytes
        self.trace_id = trace_id
        self.checksum = checksum
        self.wire_bytes = header_bytes + npay + 4 * nargs
        self.is_sequenced = kind in SEQUENCED_KINDS

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Packet:
            return NotImplemented
        return _field_values(self) == _field_values(other)

    #: mutable and compared by value, so unhashable
    __hash__ = None  # type: ignore[assignment]

    def compute_checksum(self) -> int:
        """CRC32 over every field the receiver acts on (the TB2 CRC)."""
        return _crc32(
            _CRC_PACKERS[len(self.args)](
                self.kind, self.src, self.dst, self.seq,
                self.channel, self.handler, self.addr, self.offset,
                self.total_len, self.chunk_packets, self.op_token,
                self.ack_req, self.ack_rep, *self.args,
            ),
            _crc32(self.payload),
        )

    def checksum_ok(self) -> bool:
        """Whether the stamped checksum still matches the contents
        (unstamped packets vacuously pass)."""
        return self.checksum < 0 or self.checksum == self.compute_checksum()

    def clone(self) -> "Packet":
        """An independent copy sharing no mutable state with this packet.

        Go-back-N re-stages clones of the saved packets, so a copy still
        in flight (duplicated, reordered, or held in a ``sim.at``
        callback) can never alias a packet whose ack fields are being
        re-stamped.  ``payload``/``args`` are immutable and shared;
        ``trace_id`` is kept so every copy lands on the same
        observability span.
        """
        new = _new(Packet)
        new.src = self.src
        new.dst = self.dst
        new.kind = self.kind
        new.seq = self.seq
        new.ack_req = self.ack_req
        new.ack_rep = self.ack_rep
        new.channel = self.channel
        new.handler = self.handler
        new.args = self.args
        new.payload = self.payload
        new.addr = self.addr
        new.offset = self.offset
        new.total_len = self.total_len
        new.chunk_packets = self.chunk_packets
        new.op_token = self.op_token
        new.header_bytes = self.header_bytes
        new.trace_id = self.trace_id
        new.checksum = self.checksum
        new.wire_bytes = self.wire_bytes
        new.is_sequenced = self.is_sequenced
        return new

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        extra = f" +{len(self.payload)}B@{self.offset}" if self.payload else ""
        return (
            f"Packet({self.kind.name} {self.src}->{self.dst} "
            f"ch{self.channel} seq={self.seq} "
            f"ack=({self.ack_req},{self.ack_rep}){extra})"
        )
