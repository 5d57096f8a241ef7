"""Message-lifecycle spans: one record per packet, end to end.

A :class:`MessageSpan` follows a single packet from the moment the sending
software starts building it through handler completion on the far side,
correlated across layers by the ``trace_id`` threaded through
:class:`repro.hardware.packet.Packet`.  Each layer deposits absolute
timestamps (*marks*); :mod:`repro.obs.critpath` turns them into the
stage vector that reconstructs the paper's latency attributions (Table
2's call cost pieces, §2.3's round-trip decomposition) from a live run.

Mark names, in lifecycle order (:data:`MARKS`)::

    begin          sending software starts building the message
    stage          packet first written into the send FIFO (host DRAM)
    dma_start      adapter TX service picks the armed entry up
    wire_exit      last byte leaves the sending adapter onto the link
    sw_deliver     switch hands the packet to the destination adapter
    visible        receive-FIFO entry becomes visible to the polling host
    consume        receiving software reads the packet out of the FIFO
    handler_start  AM handler dispatch begins
    handler_end    AM handler returns

Packets that never reach a stage (drops, control packets without
handlers) simply lack the later marks.  A go-back-N retransmission
re-enters the TX path under the same span (:meth:`MessageSpan.retransmit`),
so the marks from ``dma_start`` on always describe one transit: the last.
``stage`` keeps the first staging, so ``stage -> dma_start`` holds every
transit and the recovery waits between them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: mark names in lifecycle order
MARKS: Tuple[str, ...] = (
    "begin", "stage", "dma_start", "wire_exit", "sw_deliver", "visible",
    "consume", "handler_start", "handler_end",
)

#: the marks a transit deposits beyond the sending adapter
_FAR_MARKS: Tuple[str, ...] = MARKS[4:]


class MessageSpan:
    """Everything observed about one packet's life.

    A plain ``__slots__`` class rather than a dataclass: tracing opens one
    span per packet, and the hand-written ``__init__`` skips the generated
    default/``default_factory`` machinery on that per-packet path.
    """

    __slots__ = ("trace_id", "src", "dst", "kind", "seq", "wire_bytes",
                 "marks", "retransmits", "drops", "queued_us", "backoff_us")

    def __init__(self, trace_id: int, src: int, dst: int, kind: str,
                 seq: int = 0, wire_bytes: int = 0,
                 marks: Optional[Dict[str, float]] = None,
                 retransmits: int = 0, drops: int = 0,
                 queued_us: float = 0.0, backoff_us: float = 0.0):
        self.trace_id = trace_id
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.wire_bytes = wire_bytes
        #: absolute simulated times, keyed by mark name
        self.marks: Dict[str, float] = {} if marks is None else marks
        #: extra transits through the adapter TX path (go-back-N)
        self.retransmits = retransmits
        #: fabric fault-injection + receive-FIFO overflow losses
        self.drops = drops
        #: destination-link serialization wait accumulated in the switch
        self.queued_us = queued_us
        #: time spent waiting for go-back-N recovery: the gap between a
        #: transmission's wire exit and the retransmission's DMA start,
        #: summed over every re-entry into the TX path (the
        #: NACK round trip / keep-alive backoff the critical-path
        #: profiler reports as ``retransmit_backoff``)
        self.backoff_us = backoff_us

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MessageSpan(trace_id={self.trace_id}, "
                f"{self.kind} {self.src}->{self.dst} seq={self.seq}, "
                f"marks={len(self.marks)})")

    def retransmit(self, dma_start: float) -> None:
        """The packet re-enters the TX path at ``dma_start`` (go-back-N).

        The wait since the previous transit's wire exit is recovery
        backoff, and that transit's far-side marks are dropped, so the
        marks past ``stage`` always describe one transit: the last.
        """
        marks = self.marks
        self.retransmits += 1
        gap = dma_start - marks["wire_exit"]
        if gap > 0.0:
            self.backoff_us += gap
        for name in _FAR_MARKS:
            if name in marks:
                del marks[name]

    @property
    def begin(self) -> Optional[float]:
        return self.marks.get("begin")

    @property
    def end(self) -> Optional[float]:
        """The last mark present, in lifecycle order."""
        last = None
        for name in MARKS[1:]:
            if name in self.marks:
                last = self.marks[name]
        return last

    def total_us(self) -> Optional[float]:
        b, e = self.begin, self.end
        if b is None or e is None:
            return None
        return e - b

