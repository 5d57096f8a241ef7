"""MPICH generic collectives, built on point-to-point (§4, §4.4).

These are deliberately the *generic* algorithms — binomial broadcast and
reduce, gather+broadcast allgather, and the naive rank-ordered
``Alltoall`` whose hot-spotting ("all processors try to send to the same
processor at the same time, rather than spreading out the communication
pattern") is exactly what the paper blames for MPI-AM's FT gap in
Table 6.  ``alltoall_staggered`` implements the fix the paper suggests,
for the ablation benchmark.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.mpi.comm import Communicator

#: reserved tag space for collective traffic
TAG_BARRIER = 1 << 20
TAG_BCAST = 2 << 20
TAG_REDUCE = 3 << 20
TAG_GATHER = 4 << 20
TAG_SCATTER = 5 << 20
TAG_ALLGATHER = 6 << 20
TAG_ALLTOALL = 7 << 20

class _ReduceOps(dict):
    """Reduction name -> numpy ufunc, looked up in numpy the first time a
    numeric collective asks for it: byte-moving MPI programs, and
    everything that merely imports ``repro.mpi``, never load numpy."""

    _UFUNC = {"sum": "add", "max": "maximum", "min": "minimum",
              "prod": "multiply"}

    def __missing__(self, op: str):
        import numpy as np

        fn = self[op] = getattr(np, self._UFUNC[op])
        return fn


REDUCE_OPS = _ReduceOps()


class MPICollectives:
    """Mixin: collectives in terms of the point-to-point layer."""

    def barrier(self, comm: Optional[Communicator] = None):
        """Dissemination barrier (ceil(log2 P) rounds of sendrecv)."""
        comm = comm or self.comm_world
        size, rank = comm.size, comm.rank
        if size == 1:
            return
        seq = self._collseq(comm)
        k = 0
        while (1 << k) < size:
            dst = (rank + (1 << k)) % size
            src = (rank - (1 << k)) % size
            yield from self.sendrecv(b"", dst, TAG_BARRIER + seq * 32 + k,
                                     0, src, TAG_BARRIER + seq * 32 + k,
                                     comm)
            k += 1

    def bcast(self, data: Optional[bytes], root: int = 0,
              comm: Optional[Communicator] = None) -> bytes:
        """Binomial-tree broadcast; every rank returns the payload."""
        comm = comm or self.comm_world
        size, rank = comm.size, comm.rank
        if size == 1:
            return data
        seq = self._collseq(comm)
        tag = TAG_BCAST + seq
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                parent = ((vrank - mask) + root) % size
                data, _ = yield from self.recv(1 << 26, parent, tag, comm)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            if vrank + mask < size:
                child = ((vrank + mask) + root) % size
                yield from self.send(data, child, tag, comm)
            mask >>= 1
        return data

    def reduce(self, array: np.ndarray, op: str = "sum", root: int = 0,
               comm: Optional[Communicator] = None) -> Optional[np.ndarray]:
        """Binomial-tree reduction of a numpy array; result at root."""
        import numpy as np

        comm = comm or self.comm_world
        size, rank = comm.size, comm.rank
        fn = REDUCE_OPS[op]
        acc = np.array(array, copy=True)
        if size == 1:
            return acc
        seq = self._collseq(comm)
        tag = TAG_REDUCE + seq
        vrank = (rank - root) % size
        mask = 1
        while mask < size:
            if vrank & mask:
                parent = ((vrank & ~mask) + root) % size
                yield from self.send(acc.tobytes(), parent, tag, comm)
                break
            src_v = vrank | mask
            if src_v < size:
                src = (src_v + root) % size
                data, _ = yield from self.recv(acc.nbytes, src, tag, comm)
                incoming = np.frombuffer(data, dtype=acc.dtype).reshape(acc.shape)
                acc = fn(acc, incoming)
                yield from self.node.compute(
                    acc.size * self.node.host.flop_us)
            mask <<= 1
        return acc if rank == root else None

    def allreduce(self, array: np.ndarray, op: str = "sum",
                  comm: Optional[Communicator] = None) -> np.ndarray:
        """Generic MPICH allreduce: reduce to 0, then broadcast."""
        import numpy as np

        comm = comm or self.comm_world
        acc = yield from self.reduce(array, op, 0, comm)
        raw = yield from self.bcast(acc.tobytes() if comm.rank == 0 else None,
                                    0, comm)
        return np.frombuffer(raw, dtype=array.dtype).reshape(array.shape).copy()

    def gather(self, data: bytes, root: int = 0,
               comm: Optional[Communicator] = None) -> Optional[List[bytes]]:
        """Linear gather to root."""
        comm = comm or self.comm_world
        size, rank = comm.size, comm.rank
        seq = self._collseq(comm)
        tag = TAG_GATHER + seq
        if rank != root:
            yield from self.send(data, root, tag, comm)
            return None
        out: List[Optional[bytes]] = [None] * size
        out[rank] = data
        for _ in range(size - 1):
            d, st = yield from self.recv(1 << 26, -1, tag, comm)
            src_rank = comm.world_ranks.index(st.source)
            out[src_rank] = d
        return out  # type: ignore[return-value]

    def scatter(self, chunks: Optional[Sequence[bytes]], root: int = 0,
                comm: Optional[Communicator] = None) -> bytes:
        """Linear scatter from root."""
        comm = comm or self.comm_world
        size, rank = comm.size, comm.rank
        seq = self._collseq(comm)
        tag = TAG_SCATTER + seq
        if rank == root:
            if chunks is None or len(chunks) != size:
                raise ValueError("root must supply one chunk per rank")
            for r in range(size):
                if r != root:
                    yield from self.send(chunks[r], r, tag, comm)
            return chunks[root]
        data, _ = yield from self.recv(1 << 26, root, tag, comm)
        return data

    def allgather(self, data: bytes,
                  comm: Optional[Communicator] = None) -> List[bytes]:
        """Generic allgather: gather to 0 + broadcast (MPICH fallback)."""
        import pickle

        comm = comm or self.comm_world
        parts = yield from self.gather(data, 0, comm)
        blob = pickle.dumps(parts) if comm.rank == 0 else None
        raw = yield from self.bcast(blob, 0, comm)
        return pickle.loads(raw)

    def alltoall(self, chunks: Sequence[bytes],
                 comm: Optional[Communicator] = None,
                 staggered: bool = False) -> List[bytes]:
        """All-to-all personalized exchange.

        The default is MPICH's generic rank-ordered pattern: every rank
        sends to rank 0 first, then rank 1, ... — the §4.4 hot spot.  With
        ``staggered=True`` each rank starts at ``rank+1`` ("spreading out
        the communication pattern"), the fix the paper suggests.
        """
        comm = comm or self.comm_world
        size, rank = comm.size, comm.rank
        if len(chunks) != size:
            raise ValueError("need one chunk per destination")
        seq = self._collseq(comm)
        tag = TAG_ALLTOALL + seq
        out: List[Optional[bytes]] = [None] * size
        out[rank] = chunks[rank]
        reqs = []
        for r in range(size):
            if r == rank:
                continue
            req = yield from self.irecv(1 << 26, r, tag, comm)
            reqs.append((r, req))
        order = (range(size) if not staggered
                 else [(rank + 1 + i) % size for i in range(size)])
        for dst in order:
            if dst == rank:
                continue
            yield from self.send(chunks[dst], dst, tag, comm)
        for r, req in reqs:
            yield from self.wait(req)
            out[r] = req.data
        return out  # type: ignore[return-value]

    def scan(self, array: np.ndarray, op: str = "sum",
             comm: Optional[Communicator] = None) -> np.ndarray:
        """MPI_Scan (inclusive prefix): rank r gets op(ranks 0..r).

        The generic MPICH algorithm: receive the running prefix from
        rank-1, combine, forward to rank+1 — a linear pipeline.
        """
        import numpy as np

        comm = comm or self.comm_world
        size, rank = comm.size, comm.rank
        fn = REDUCE_OPS[op]
        acc = np.array(array, copy=True)
        if size == 1:
            return acc
        seq = self._collseq(comm)
        tag = TAG_REDUCE + (1 << 19) + seq
        if rank > 0:
            data, _ = yield from self.recv(acc.nbytes, rank - 1, tag, comm)
            prev = np.frombuffer(data, dtype=acc.dtype).reshape(acc.shape)
            acc = fn(prev, acc)
            yield from self.node.compute(acc.size * self.node.host.flop_us)
        if rank < size - 1:
            yield from self.send(acc.tobytes(), rank + 1, tag, comm)
        return acc

    def gatherv(self, data: bytes, root: int = 0,
                comm: Optional[Communicator] = None) -> Optional[List[bytes]]:
        """Variable-size gather (sizes need not match across ranks)."""
        # the fixed-size gather already transports per-rank lengths
        return (yield from self.gather(data, root, comm))

    def alltoallv(self, chunks: Sequence[bytes],
                  comm: Optional[Communicator] = None,
                  staggered: bool = False) -> List[bytes]:
        """Variable-size all-to-all (per-destination sizes may differ)."""
        return (yield from self.alltoall(chunks, comm, staggered))

    # -- helpers ----------------------------------------------------------------

    def _collseq(self, comm: Communicator) -> int:
        """Per-communicator collective sequence number (tag isolation)."""
        key = comm.context
        seq = self._coll_seq.get(key, 0)
        self._coll_seq[key] = (seq + 1) % 1024
        return seq
