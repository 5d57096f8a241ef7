"""Send and receive FIFO bookkeeping for the TB2 adapter (§2.1).

The send FIFO lives in host DRAM: the host writes packets into successive
entries, then *arms* them by storing their transfer lengths into the packet
length array in adapter memory (one MicroChannel PIO store, which may cover
several packets at once during bulk transfers).  The adapter transmits
armed packets in order.

The receive FIFO is filled by the adapter via DMA and drained by the host;
the host *pops* entries lazily — it tells the adapter that slots are free
only every ``lazy_pop_batch`` consumed packets, because each pop is a ~1 us
MicroChannel access.  Capacity accounting therefore distinguishes
*occupied* (accepted, not yet returned to the adapter) from *consumed*
(read by the host but not yet popped).

A packet enters the receive FIFO when the adapter settles it, stamped
with the instant its RX DMA completes.  The host sees a slot once its
clock reaches the stamp: visibility is a function of the clock, not an
event.  Slots are settled in RX-DMA order, so the stamps never decrease
from head to tail.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.hardware.packet import Packet


class SendFIFO:
    """Host-side send queue + adapter-side length array."""

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError("send FIFO needs at least one entry")
        self.entries = entries
        self._staged: Deque[Packet] = deque()  # written, not yet armed
        self._armed: Deque[Packet] = deque()   # length slot set, awaiting TX
        #: len(_staged) + len(_armed), maintained on stage/take: software
        #: polls for free entries far more often than packets move, so
        #: occupancy is an int read, not two deque measurements
        self.occupied = 0
        #: slot-conservation checker (repro.check), None when unchecked
        self.check = None

    @property
    def free_entries(self) -> int:
        return self.entries - self.occupied

    @property
    def staged_count(self) -> int:
        return len(self._staged)

    def stage(self, packet: Packet) -> None:
        """Write a packet into the next entry (not yet visible to the TB2)."""
        if self.occupied >= self.entries:  # free_entries, per staged packet
            raise OverflowError("send FIFO full; caller must back off first")
        self._staged.append(packet)
        self.occupied += 1
        if self.check is not None:
            self.check.on_stage(self)

    def arm(self) -> int:
        """Set length-array slots for every staged packet.  Returns how
        many were armed.  The caller charges one MicroChannel PIO for the
        whole batch."""
        n = len(self._staged)
        for _ in range(n):
            self._armed.append(self._staged.popleft())
        if self.check is not None:
            self.check.on_arm(self, n)
        return n

    def take_armed(self) -> Optional[Packet]:
        """Adapter side: consume the next armed packet (frees its entry)."""
        if not self._armed:
            return None
        pkt = self._armed.popleft()
        self.occupied -= 1
        if self.check is not None:
            self.check.on_take(self)
        return pkt


class RecvFIFO:
    """Adapter-filled receive queue with lazy host-side popping."""

    def __init__(self, capacity: int, lazy_pop_batch: int = 16):
        if capacity <= 0:
            raise ValueError("receive FIFO needs capacity > 0")
        if lazy_pop_batch <= 0:
            raise ValueError("lazy_pop_batch must be positive")
        self.capacity = capacity
        self.lazy_pop_batch = lazy_pop_batch
        #: slots charged against capacity (settled and not yet popped)
        self.occupied = 0
        #: settled packets the host has not consumed, in RX-DMA order,
        #: as ``(stamp, order, packet)``: the instant the packet becomes
        #: visible to the host, and its place in the simulator's event
        #: order (the ``seq`` drawn when the switch handed it over; a
        #: landing at the stamp keeps it, so same-instant ties go by it)
        self.slots: Deque[Tuple[float, int, Packet]] = deque()
        #: consumed by the host but not yet popped back to the adapter
        self.pending_pop = 0
        #: slot-conservation checker (repro.check), None when unchecked
        self.check = None

    def reserve(self) -> bool:
        """Adapter side, on settling a packet: claim a slot or report
        overflow."""
        if self.occupied >= self.capacity:
            return False
        self.occupied += 1
        if self.check is not None:
            self.check.on_reserve(self)
        return True

    def consume(self) -> Packet:
        """Host side: read the head packet out of the queue.

        The caller has seen the head visible (its stamp at or before the
        host's clock).  Returns the packet; the slot stays occupied until
        :meth:`should_pop` triggers a batched pop.
        """
        if not self.slots:
            raise IndexError("receive FIFO empty")
        self.pending_pop += 1
        pkt = self.slots.popleft()[2]
        if self.check is not None:
            self.check.on_consume(self)
        return pkt

    def should_pop(self) -> bool:
        """True when enough entries have been consumed to justify the ~1 us
        MicroChannel access that returns them to the adapter."""
        return self.pending_pop >= self.lazy_pop_batch

    def pop_batch(self) -> int:
        """Host side: return all consumed entries to the adapter.  The
        caller charges one MicroChannel PIO.  Returns slots freed."""
        freed = self.pending_pop
        self.pending_pop = 0
        self.occupied -= freed
        if self.occupied < 0:
            raise AssertionError("receive FIFO accounting went negative")
        if self.check is not None:
            self.check.on_pop(self, freed)
        return freed
