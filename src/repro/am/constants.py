"""Protocol constants and calibrated software costs for SP AM (§2.2, §2.5).

Window sizes: a chunk is 36 packets, the window "must be at least twice as
large as a chunk"; the paper chooses 72 for requests and 76 for replies
(the extra 4 accommodate start-up request messages' replies).

The :class:`AMCosts` knobs are calibrated so the simulated call costs land
on Table 2 (am_request_1..4 = 7.7..8.2 us, am_reply_1..4 = 4.0..4.4 us)
and the derived figures on Table 3; see DESIGN.md §4 and
``tests/am/test_calibration.py`` which pins all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.params import (
    CHUNK_BYTES,
    CHUNK_PACKETS,
    PACKET_PAYLOAD_BYTES,
)

__all__ = [
    "REQUEST_CHANNEL",
    "REPLY_CHANNEL",
    "REQUEST_WINDOW",
    "REPLY_WINDOW",
    "CHUNK_BYTES",
    "CHUNK_PACKETS",
    "PACKET_PAYLOAD_BYTES",
    "ACK_FRACTION",
    "AMCosts",
]

#: traffic classes with independent sliding windows (§2.2)
REQUEST_CHANNEL = 0
REPLY_CHANNEL = 1

#: window sizes in packets: 72 for requests, 76 for replies (§2.2)
REQUEST_WINDOW = 2 * CHUNK_PACKETS          # 72
REPLY_WINDOW = 2 * CHUNK_PACKETS + 4        # 76

#: the receiver issues an explicit ack when received-but-unacknowledged
#: traffic reaches window/ACK_FRACTION (§2.2: "when one-quarter of the
#: window remains unacknowledged")
ACK_FRACTION = 4


@dataclass(frozen=True)
class AMCosts:
    """Host-CPU costs of the SP AM software layer, in microseconds.

    Together with the HostParams costs (cache flush, MicroChannel PIO,
    poll costs) these reproduce Table 2.  The breakdown of e.g.
    ``am_request_1``'s 7.7 us:

        req_fixed (4.4)  + flush of the FIFO entry (0.18, one thin-node
        line for a small packet) + length-array PIO (1.0) +
        save-for-retransmission (0.8) + the empty am_poll it performs
        after sending (1.3)  ~= 7.7 us.
    """

    #: request build/bookkeeping before the packet is visible (seq
    #: assignment, credit check, header+args into the FIFO entry)
    req_fixed: float = 4.42
    #: same for replies — cheaper: no credit wait, no trailing poll (§2.5)
    rep_fixed: float = 2.02
    #: marginal cost per extra 32-bit argument word (Table 2: ~0.15 us)
    per_word: float = 0.15
    #: copying a sequenced packet aside for possible retransmission (§2.2)
    save_retransmit: float = 0.8
    #: fixed cost of an am_store/am_store_async call (op setup, chunking)
    store_fixed: float = 3.5
    #: per-packet cost inside a bulk transfer, excluding the cache flush
    #: and the (batched) length-array PIO:  36 packets x (this + flush
    #: 0.72) + 9 batch PIOs ~= the paper's 172 us chunk-send overhead
    store_per_packet: float = 3.8
    #: extra fixed cost of am_get (building the get request)
    get_fixed: float = 3.0
    #: receiver-side cost of serving one get request (locating the region)
    get_serve: float = 2.0
    #: building + sending an explicit ACK/NACK/keepalive control packet
    ack_send: float = 1.2
    #: flow-control bookkeeping when a NACK triggers go-back-N
    nack_process: float = 1.5
    #: simulated-time between keep-alive probes while blocked on missing
    #: acks ("timeouts are emulated by counting unsuccessful polls"):
    #: ~300 empty polls x 1.3 us
    keepalive_idle: float = 400.0
    #: receiver-side stalled-assembly watchdog: a partially reassembled
    #: chunk with no arrivals for this long NACKs the sender (a mid-chunk
    #: loss produces no sequence gap, so the normal NACK path can't see
    #: it).  Must exceed the worst intra-chunk packet gap (~7 us) by a
    #: wide margin and stay below keepalive_idle so recovery beats the
    #: keep-alive's exponential backoff.
    assembly_stall_timeout: float = 150.0
    #: per-packet receiver cost of copying bulk payload to the user buffer
    #: is charged via HostParams.copy_rate; this is the fixed part
    bulk_recv_fixed: float = 0.3
