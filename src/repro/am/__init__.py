"""SP Active Messages — the paper's core contribution (§2).

A full Generic Active Messages 1.1 implementation layered directly on the
simulated TB2 adapter, using none of the (simulated) IBM messaging software:

* ``am_request_M`` / ``am_reply_M`` (M = 1..4): short messages carrying a
  handler id and up to four word arguments,
* ``am_store`` / ``am_store_async``: sender-addressed bulk transfers in
  8064-byte chunks with the paper's pipelined chunk protocol,
* ``am_get``: remote fetch,
* ``am_poll``: explicit network polling; handlers run inside the poll.

Reliability (§2.2): sequence numbers per (peer, channel), a sliding window
of 72 request / 76 reply packets, piggybacked cumulative acks, explicit
acks at a quarter window, NACK-triggered go-back-N retransmission, and a
keep-alive probe for tail losses.

Use :func:`attach_spam` on an SP machine or :func:`attach_generic_am` on a
Table-4 peer machine; both install an :class:`ActiveMessages` on each
``node.am``.
"""

from repro.am.api import attach_am, attach_generic_am, attach_spam
from repro.am.constants import (
    ACK_FRACTION,
    AMCosts,
    CHUNK_BYTES,
    CHUNK_PACKETS,
    REPLY_CHANNEL,
    REPLY_WINDOW,
    REQUEST_CHANNEL,
    REQUEST_WINDOW,
)
from repro.am.handler import ActiveMessages, HandlerTable, ReplyToken
from repro.am.interrupts import compute_interruptible, compute_polled
from repro.am.raw import raw_pingpong_roundtrip

__all__ = [
    "ActiveMessages",
    "ReplyToken",
    "attach_am",
    "attach_spam",
    "attach_generic_am",
    "AMCosts",
    "HandlerTable",
    "REQUEST_WINDOW",
    "REPLY_WINDOW",
    "REQUEST_CHANNEL",
    "REPLY_CHANNEL",
    "CHUNK_BYTES",
    "CHUNK_PACKETS",
    "ACK_FRACTION",
    "raw_pingpong_roundtrip",
    "compute_interruptible",
    "compute_polled",
]
