"""The Split-C runtime: split-phase memory operations over Active Messages.

Each node holds a :class:`SplitC` instance (``node.splitc``).  Operations
mirror the Split-C runtime calls the compiler emits:

* ``read_word`` / ``write_word`` — blocking remote word access,
* ``get_bulk`` / ``put_bulk``    — split-phase (``:=``), completed by ``sync()``,
* ``store_bulk`` / ``store_word`` — one-way signaling stores (``:-``),
  completed globally by ``all_store_sync()`` or locally by ``store_sync``,
* ``barrier`` — dissemination barrier,
* ``allreduce_int`` / ``broadcast_int`` — the small collectives the
  benchmarks need.

All operations work over any object implementing the AM API (SP AM,
generic AM, or the MPL shim), so Table 5's five machine columns run the
same application code.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.splitc.gptr import GlobalPtr
from repro.splitc.profile import PhaseProfile

WORD = 8  # Split-C word for our purposes: 64-bit


# ---------------------------------------------------------------------------
# module-level handlers (registered identically on every node)
# ---------------------------------------------------------------------------

def _rt(token) -> "SplitC":
    return token.am.node.splitc


def _h_read(token, addr, op_token):
    rt = _rt(token)
    value = struct.unpack("<q", rt.node.memory.read(addr, WORD))[0]
    yield from token.reply_2(_h_read_reply, value, op_token)


def _h_read_reply(token, value, op_token):
    _rt(token)._read_replies[op_token] = value


def _h_write(token, addr, value, op_token):
    rt = _rt(token)
    rt.node.memory.write(addr, struct.pack("<q", value))
    yield from token.reply_1(_h_write_ack, op_token)


def _h_write_ack(token, op_token):
    _rt(token)._pending_acks.discard(op_token)


def _h_store_word(token, addr, value):
    rt = _rt(token)
    rt.node.memory.write(addr, struct.pack("<q", value))
    rt.stores_recv_bytes += WORD


def _h_store_complete(token, addr, nbytes, arg):
    _rt(token).stores_recv_bytes += nbytes


def _h_barrier(token, round_no, epoch):
    _rt(token)._barrier_hits.setdefault((epoch, round_no), 0)
    _rt(token)._barrier_hits[(epoch, round_no)] += 1


def _h_reduce_value(token, value, epoch, src):
    rt = _rt(token)
    rt._reduce_values.setdefault(epoch, []).append(value)


def _h_bcast_value(token, value, epoch):
    _rt(token)._bcast_values[epoch] = value


class SplitC:
    """Split-C runtime on one node."""

    def __init__(self, node, nprocs: int):
        if node.am is None:
            raise ValueError("attach an AM layer before the Split-C runtime")
        self.node = node
        self.am = node.am
        self.rank = node.id
        self.nprocs = nprocs
        self.profile = PhaseProfile(node)
        self._next_op = 1
        self._read_replies = {}
        self._pending_acks = set()
        #: outstanding split-phase bulk ops (BulkSendOp handles / events)
        self._pending_ops: List = []
        self.stores_sent_bytes = 0
        self.stores_recv_bytes = 0
        self._barrier_hits = {}
        self._barrier_epoch = 0
        self._reduce_values = {}
        self._bcast_values = {}
        self._collective_epoch = 0
        # ensure identical handler ids everywhere
        for h in (_h_read, _h_read_reply, _h_write, _h_write_ack,
                  _h_store_word, _h_store_complete, _h_barrier,
                  _h_reduce_value, _h_bcast_value):
            self.am.register(h)
        node.splitc = self

    # -- word access -------------------------------------------------------

    def read_word(self, gp: GlobalPtr):
        """Blocking remote read of one 64-bit word."""
        if gp.proc == self.rank:
            return struct.unpack("<q", self.node.memory.read(gp.addr, WORD))[0]
        tok = self._take_op()
        yield from self.am.request_2(gp.proc, _h_read, gp.addr, tok)
        while tok not in self._read_replies:
            yield from self.am._wait_progress()
        return self._read_replies.pop(tok)

    def write_word(self, gp: GlobalPtr, value: int):
        """Blocking remote write of one word (acknowledged)."""
        if gp.proc == self.rank:
            self.node.memory.write(gp.addr, struct.pack("<q", value))
            return
        tok = self._take_op()
        self._pending_acks.add(tok)
        yield from self.am.request_3(gp.proc, _h_write, gp.addr, value, tok)
        while tok in self._pending_acks:
            yield from self.am._wait_progress()

    # -- split-phase bulk ----------------------------------------------------

    def get_bulk(self, local_addr: int, gp: GlobalPtr, nbytes: int):
        """Split-phase bulk get (``local := *gp``); complete with sync()."""
        if gp.proc == self.rank:
            data = self.node.memory.read(gp.addr, nbytes)
            self.node.memory.write(local_addr, data)
            return
        ev = yield from self.am.get_async(gp.proc, gp.addr, local_addr, nbytes)
        self._pending_ops.append(ev)

    def put_bulk(self, gp: GlobalPtr, local_addr: int, nbytes: int):
        """Split-phase bulk put (``*gp := local``); complete with sync()."""
        if gp.proc == self.rank:
            data = self.node.memory.read(local_addr, nbytes)
            self.node.memory.write(gp.addr, data)
            return
        op = yield from self.am.store_async(gp.proc, local_addr, gp.addr, nbytes)
        self._pending_ops.append(op.done)

    def sync(self):
        """Wait for every outstanding split-phase operation."""
        while self._pending_ops:
            ev = self._pending_ops[-1]
            while not ev.triggered:
                yield from self.am._wait_progress()
            self._pending_ops.pop()

    # -- signaling stores -----------------------------------------------------

    def store_bulk(self, gp: GlobalPtr, local_addr: int, nbytes: int):
        """One-way bulk store (``*gp :- local``)."""
        if gp.proc == self.rank:
            data = self.node.memory.read(local_addr, nbytes)
            self.node.memory.write(gp.addr, data)
            self.stores_recv_bytes += nbytes
            self.stores_sent_bytes += nbytes
            return
        op = yield from self.am.store_async(
            gp.proc, local_addr, gp.addr, nbytes, handler=_h_store_complete)
        self._pending_ops.append(op.done)
        self.stores_sent_bytes += nbytes

    def store_word(self, gp: GlobalPtr, value: int):
        """One-way single-word store — the fine-grain op of the
        small-message sort variants."""
        if gp.proc == self.rank:
            self.node.memory.write(gp.addr, struct.pack("<q", value))
            self.stores_recv_bytes += WORD
            self.stores_sent_bytes += WORD
            return
        yield from self.am.request_2(gp.proc, _h_store_word, gp.addr, value)
        self.stores_sent_bytes += WORD

    def store_sync(self, expected_bytes: int):
        """Wait until this node has received ``expected_bytes`` of stores
        (and its own outgoing stores are complete)."""
        yield from self.sync()
        while self.stores_recv_bytes < expected_bytes:
            yield from self.am._wait_progress()

    def all_store_sync(self):
        """Global store completion: every store issued anywhere has landed.

        Outgoing stores complete locally first (acked), so a barrier then
        suffices for bulk stores; one-way word stores may still be in
        flight at the barrier, so we verify with a global sent/received
        reduction and retry (in the common case a single round).
        """
        yield from self.sync()
        while True:
            yield from self.barrier()
            sent = yield from self.allreduce_int(self.stores_sent_bytes)
            recv = yield from self.allreduce_int(self.stores_recv_bytes)
            if sent == recv:
                return
            yield from self.am.poll()

    # -- collectives --------------------------------------------------------

    def barrier(self):
        """Dissemination barrier: ceil(log2 P) rounds of requests."""
        if self.nprocs == 1:
            return
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        rounds = (self.nprocs - 1).bit_length()
        for k in range(rounds):
            peer = (self.rank + (1 << k)) % self.nprocs
            yield from self.am.request_2(peer, _h_barrier, k, epoch)
            while self._barrier_hits.get((epoch, k), 0) < 1:
                yield from self.am._wait_progress()
        # epoch bookkeeping: drop counters for this epoch
        for k in range(rounds):
            self._barrier_hits.pop((epoch, k), None)

    def allreduce_int(self, value: int):
        """Sum an integer across all processors (gather to 0, broadcast)."""
        if self.nprocs == 1:
            return value
        epoch = self._collective_epoch
        self._collective_epoch += 1
        if self.rank == 0:
            vals = self._reduce_values.setdefault(epoch, [])
            while len(vals) < self.nprocs - 1:
                yield from self.am._wait_progress()
            total = value + sum(vals)
            del self._reduce_values[epoch]
            for peer in range(1, self.nprocs):
                yield from self.am.request_2(peer, _h_bcast_value, total, epoch)
            return total
        yield from self.am.request_3(0, _h_reduce_value, value, epoch, self.rank)
        while epoch not in self._bcast_values:
            yield from self.am._wait_progress()
        return self._bcast_values.pop(epoch)

    def broadcast_int(self, value: Optional[int]):
        """Broadcast a word from rank 0 (linear fan-out)."""
        if self.nprocs == 1:
            return value
        epoch = self._collective_epoch
        self._collective_epoch += 1
        if self.rank == 0:
            for peer in range(1, self.nprocs):
                yield from self.am.request_2(peer, _h_bcast_value,
                                             value, epoch)
            return value
        while epoch not in self._bcast_values:
            yield from self.am._wait_progress()
        return self._bcast_values.pop(epoch)

    # -- misc ---------------------------------------------------------------

    def _take_op(self) -> int:
        t = self._next_op
        self._next_op += 1
        return t


def attach_splitc(machine) -> List[SplitC]:
    """Install the Split-C runtime on every node (AM must be attached)."""
    return [SplitC(node, machine.nprocs) for node in machine.nodes]
