"""Bulk-transfer operation state (§2.2's chunk protocol).

An outgoing store/get-serve is a :class:`BulkSendOp`: the data is split
into 8064-byte chunks; "initially, two chunks are transmitted and the next
chunk is sent only when the previous-to-last chunk is acknowledged"
(Figure 2).  Because the 172 us chunk-send overhead exceeds one round trip
the pipeline stays full, and for large transfers blocking and non-blocking
stores become indistinguishable — behaviours the benchmark suite checks.

An incoming transfer is a :class:`BulkRecvState`: progress is counted in
bytes and the completion handler fires exactly once when all have landed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.am.constants import CHUNK_BYTES, PACKET_PAYLOAD_BYTES
from repro.sim.primitives import Event


def split_chunks(nbytes: int) -> List[Tuple[int, int]]:
    """Split a transfer into (offset, length) chunks of <= 8064 bytes."""
    if nbytes < 0:
        raise ValueError("negative transfer size")
    if nbytes == 0:
        return []
    return [
        (off, min(CHUNK_BYTES, nbytes - off))
        for off in range(0, nbytes, CHUNK_BYTES)
    ]


def packets_in_chunk(length: int) -> int:
    return -(-length // PACKET_PAYLOAD_BYTES)


class BulkSendOp:
    """Sender-side state of one store / get-serve transfer."""

    _PIPELINE_DEPTH = 2  # chunks in flight before the first ack (Fig. 2)

    def __init__(
        self,
        token: int,
        dst: int,
        channel: int,
        data: bytes,
        remote_addr: int,
        handler: int,
        handler_args: Tuple[int, ...],
        done: Event,
        completion_fn: Optional[Callable[["BulkSendOp"], None]] = None,
    ):
        self.token = token
        self.dst = dst
        self.channel = channel
        self.data = data
        self.remote_addr = remote_addr
        self.handler = handler
        self.handler_args = handler_args
        self.chunks = split_chunks(len(data))
        self.next_chunk = 0
        self.acked_chunks = 0
        self.done = done
        self.completion_fn = completion_fn

    @property
    def total_chunks(self) -> int:
        return len(self.chunks)

    @property
    def complete(self) -> bool:
        return self.acked_chunks >= self.total_chunks

    def sendable_now(self) -> bool:
        """Chunk pacing: chunk i may go once chunk i-2 is acknowledged."""
        if self.next_chunk >= self.total_chunks:
            return False
        return self.next_chunk < self.acked_chunks + self._PIPELINE_DEPTH

    def take_chunk(self) -> Tuple[int, int, int]:
        """Claim the next chunk; returns (chunk_index, offset, length)."""
        i = self.next_chunk
        off, length = self.chunks[i]
        self.next_chunk += 1
        return i, off, length

    def on_chunk_acked(self) -> bool:
        """One more chunk fully acknowledged.  True when the op finishes."""
        self.acked_chunks += 1
        if self.acked_chunks > self.total_chunks:
            raise AssertionError("more chunk acks than chunks")
        return self.complete


@dataclass
class BulkRecvState:
    """Receiver-side progress of one incoming transfer."""

    src: int
    token: int
    addr: int
    total_len: int
    handler: int
    handler_args: Tuple[int, ...]
    received: int = 0

    def add(self, nbytes: int) -> bool:
        """Record ``nbytes`` landing.  True when the transfer completes."""
        self.received += nbytes
        if self.received > self.total_len:
            raise AssertionError(
                f"bulk overrun: {self.received} > {self.total_len} "
                f"(src={self.src}, token={self.token})"
            )
        return self.received == self.total_len
