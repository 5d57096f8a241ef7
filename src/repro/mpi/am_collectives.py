"""Collectives implemented directly over Active Messages — the §5 future work.

"Streamlining nonblocking communication routines and implementing
collective communication functions directly over AM (rather than using
the default MPICH functions built over MPI sends) would improve
performance."

This module implements that suggestion for the two collectives the paper
discusses:

* :func:`am_bcast` — binomial broadcast whose hops are bare ``am_store``\\ s
  into pre-registered buffers: no MPI envelopes, no matching, no
  unexpected-queue bookkeeping on any hop;
* :func:`am_alltoall` — the FT transpose as a staggered schedule of
  direct stores into a pre-exchanged buffer matrix: no per-message MPI
  protocol at all, and no §4.4 hot spot.

Both need a one-time setup collective (:class:`AMCollectiveContext`) that
registers per-node buffer addresses — the kind of persistent collective
state MPICH's generic layer cannot assume, which is exactly why the paper
calls this a specialization.

The ablation claims ``direct_collectives.alltoall`` and
``direct_collectives.bcast`` (``repro.claims``; ``pytest benchmarks/ -k
direct_collectives``) measure the win over the generic MPICH versions.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence

from repro.mpi.mpi import MPI

_LEN = struct.Struct("<q")


class AMCollectiveContext:
    """Pre-registered buffer space for AM-direct collectives on one node.

    Created collectively by :func:`setup_am_collectives`: every node
    allocates its receive areas and the addresses are exchanged once
    (over MPI) at setup time, after which collectives touch only AM.
    """

    def __init__(self, mpi: MPI, max_bytes: int):
        self.mpi = mpi
        self.am = mpi.node.am
        self.node = mpi.node
        self.rank = mpi.rank
        self.nprocs = mpi.nprocs
        self.max_bytes = max_bytes
        #: bcast landing area on this node (length word + payload)
        self.bcast_addr = self.node.memory.alloc(8 + max_bytes)
        #: alltoall landing area: one slot per source rank
        self.a2a_addr = self.node.memory.alloc(
            self.nprocs * (8 + max_bytes))
        #: remote addresses, filled by setup: rank -> (bcast, a2a)
        self.remote: Dict[int, tuple] = {}
        #: per-collective-call sequence (stamps completion counters)
        self._bcast_seq = 0
        self._a2a_seq = 0
        self._bcast_arrived: Dict[int, bool] = {}
        self._a2a_arrived: Dict[int, int] = {}
        self.node.am_coll = self

    # -- completion handlers (module-level would also do; bound through
    #    the node, mirroring the other layers' pattern) -------------------


def _ctx(token) -> AMCollectiveContext:
    return token.am.node.am_coll


def _h_bcast_arrived(token, addr, nbytes, seq):
    _ctx(token)._bcast_arrived[seq] = True


def _h_a2a_arrived(token, addr, nbytes, seq):
    ctx = _ctx(token)
    ctx._a2a_arrived[seq] = ctx._a2a_arrived.get(seq, 0) + 1


def setup_am_collectives(mpis: Sequence[MPI],
                         max_bytes: int = 65536) -> List[AMCollectiveContext]:
    """Build a context per node and exchange buffer addresses.

    Call once before spawning the node programs (the address exchange is
    done directly — it stands in for a one-time setup collective).
    """
    ctxs = [AMCollectiveContext(mpi, max_bytes) for mpi in mpis]
    for me in ctxs:
        me.am.register(_h_bcast_arrived)
        me.am.register(_h_a2a_arrived)
        for other in ctxs:
            me.remote[other.rank] = (other.bcast_addr, other.a2a_addr)
    return ctxs


def am_bcast(ctx: AMCollectiveContext, data: Optional[bytes],
             root: int = 0) -> bytes:
    """Binomial broadcast over bare am_store hops."""
    size, rank = ctx.nprocs, ctx.rank
    seq = ctx._bcast_seq
    ctx._bcast_seq += 1
    vrank = (rank - root) % size
    if vrank == 0:
        if data is None:
            raise ValueError("root must supply the payload")
        if len(data) > ctx.max_bytes:
            raise ValueError("payload exceeds the registered buffer")
        ctx.node.memory.write(ctx.bcast_addr,
                              _LEN.pack(len(data)) + data)
    else:
        while not ctx._bcast_arrived.pop(seq, False):
            yield from ctx.am._wait_progress()
        raw = ctx.node.memory.read(ctx.bcast_addr, 8)
        nbytes = _LEN.unpack(raw)[0]
        data = ctx.node.memory.read(ctx.bcast_addr + 8, nbytes)
    # forward to binomial children: one am_store each, no MPI envelope
    mask = 1
    while mask < size and not (vrank & mask):
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            child = ((vrank + mask) + root) % size
            yield from ctx.am.store(
                child, ctx.bcast_addr, ctx.remote[child][0],
                8 + len(data), handler=_h_bcast_arrived, arg=seq)
        mask >>= 1
    return data


def am_alltoall(ctx: AMCollectiveContext,
                chunks: Sequence[bytes]) -> List[bytes]:
    """All-to-all as staggered direct stores (no MPI layer, no hot spot).

    Every rank stores chunk ``dst`` straight into its slot in ``dst``'s
    landing area, starting at ``rank+1`` so no destination is hit by all
    senders at once (the §4.4 fix, below the MPI layer entirely).
    """
    size, rank = ctx.nprocs, ctx.rank
    if len(chunks) != size:
        raise ValueError("need one chunk per destination")
    if any(len(c) > ctx.max_bytes for c in chunks):
        raise ValueError("chunk exceeds the registered slot size")
    seq = ctx._a2a_seq
    ctx._a2a_seq += 1
    slot = 8 + ctx.max_bytes
    # my own chunk lands locally
    ctx.node.memory.write(ctx.a2a_addr + rank * slot,
                          _LEN.pack(len(chunks[rank])) + chunks[rank])
    # stage my outgoing chunks (length-prefixed) in scratch, send staggered
    ops = []
    for i in range(1, size):
        dst = (rank + i) % size
        payload = _LEN.pack(len(chunks[dst])) + chunks[dst]
        scratch = ctx.node.memory.alloc(len(payload))
        ctx.node.memory.write(scratch, payload)
        remote = ctx.remote[dst][1] + rank * slot
        op = yield from ctx.am.store_async(
            dst, scratch, remote, len(payload),
            handler=_h_a2a_arrived, arg=seq)
        ops.append(op)
    # completion: all my sends acked AND all peers' chunks arrived
    for op in ops:
        yield from ctx.am.wait_op(op)
    while ctx._a2a_arrived.get(seq, 0) < size - 1:
        yield from ctx.am._wait_progress()
    ctx._a2a_arrived.pop(seq, None)
    out: List[bytes] = []
    for src in range(size):
        base = ctx.a2a_addr + src * slot
        nbytes = _LEN.unpack(ctx.node.memory.read(base, 8))[0]
        out.append(ctx.node.memory.read(base + 8, nbytes))
    return out
