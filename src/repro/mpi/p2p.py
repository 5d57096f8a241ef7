"""Point-to-point MPI operations over the ADI (§4.1).

The subset MPICH's upper layers and the NAS kernels need: blocking and
non-blocking send/receive, the wait family and sendrecv.
Payloads are bytes; ``(addr, nbytes)`` tuples give placement into node
memory without staging copies (used by the NAS kernels).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.mpi.comm import Communicator
from repro.mpi.request import Request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status

Buffer = Union[bytes, bytearray, Tuple[int, int]]


class MPIPoint2Point:
    """Mixin providing the point-to-point API (state lives on MPI)."""

    # -- buffers -------------------------------------------------------------

    def _as_addr(self, buf: Buffer) -> Tuple[int, int]:
        """Resolve a payload to (addr, nbytes) in this node's memory."""
        if isinstance(buf, tuple):
            return buf
        data = bytes(buf)
        addr = self.node.memory.alloc(max(len(data), 1))
        if data:
            self.node.memory.write(addr, data)
        return addr, len(data)

    # -- non-blocking ----------------------------------------------------------

    def isend(self, buf: Buffer, dst: int, tag: int = 0,
              comm: Optional[Communicator] = None):
        """MPI_Isend: start a send, return its Request."""
        comm = comm or self.comm_world
        dst_world = comm.world_rank_of(dst, "dst")
        addr, nbytes = self._as_addr(buf)
        self._requests_made += 1
        req = Request("send", comm, dst, tag, nbytes,
                      rid=self._requests_made)
        ck = self.adi.check
        if ck is not None:
            ck.on_new(req)
        if dst_world == self.rank:
            data = self.node.memory.read(addr, nbytes) if nbytes else b""
            req.complete()
            # a matching receive may already be posted; otherwise queue
            # the message for a future irecv to claim
            rreq = self.adi._find_posted(self.rank, tag, comm.context)
            if rreq is not None:
                if rreq.recv_addr is not None and data:
                    self.node.memory.write(rreq.recv_addr, data)
                rreq.complete(data, source=self.rank, tag=tag)
            else:
                self._loopback.append((comm.context, tag, data))
            return req
        yield from self.adi.start_send(dst_world, addr, nbytes, tag,
                                       comm.context, req)
        return req

    def irecv(self, nbytes: int, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              comm: Optional[Communicator] = None,
              addr: Optional[int] = None):
        """MPI_Irecv: post a receive, return its Request."""
        comm = comm or self.comm_world
        src_world = (comm.world_rank_of(src, "src") if src != ANY_SOURCE
                     else ANY_SOURCE)
        self._requests_made += 1
        req = Request("recv", comm, src_world, tag, nbytes,
                      rid=self._requests_made)
        req.recv_addr = addr
        ck = self.adi.check
        if ck is not None:
            ck.on_new(req)
        # self-delivery first
        hit = self._match_loopback(comm.context, tag)
        if hit is not None:
            mtag, data = hit
            if addr is not None and data:
                self.node.memory.write(addr, data)
            # like the ADI paths, the status carries the *world* rank
            # (communicator-local ranks broke subcommunicator consumers
            # doing world_ranks.index(status.source))
            req.complete(data, source=self.rank, tag=mtag)
            return req
        yield from self.adi.post_recv(req)
        return req

    def wait(self, req: Request) -> Status:
        """MPI_Wait: block until the request completes."""
        ck = self.adi.check
        if ck is not None:
            ck.on_progress(req)
        while not req.done:
            yield from self.adi._wait_progress()
        yield from self.adi.progress()
        return req.status

    def waitall(self, reqs: Sequence[Request]):
        """MPI_Waitall: complete every request; returns their statuses."""
        for r in reqs:
            yield from self.wait(r)
        return [r.status for r in reqs]

    def waitany(self, reqs: Sequence[Request]):
        """MPI_Waitany: block until one request completes; returns its
        index and status."""
        if not reqs:
            raise ValueError("waitany of an empty request list")
        ck = self.adi.check
        if ck is not None:
            for r in reqs:
                ck.on_progress(r)
        while True:
            for i, r in enumerate(reqs):
                if r.done:
                    return i, r.status
            yield from self.adi._wait_progress()

    def waitsome(self, reqs: Sequence[Request]):
        """MPI_Waitsome: block until >= 1 completes; returns the indices."""
        if not reqs:
            return []  # MPI_Waitsome with incount 0 completes nothing
        ck = self.adi.check
        if ck is not None:
            for r in reqs:
                ck.on_progress(r)
        while True:
            done = [i for i, r in enumerate(reqs) if r.done]
            if done:
                return done
            yield from self.adi._wait_progress()

    # -- blocking ---------------------------------------------------------------

    def send(self, buf: Buffer, dst: int, tag: int = 0,
             comm: Optional[Communicator] = None):
        """MPI_Send: returns when the buffer is reusable (buffered) or the
        transfer is complete (rendez-vous)."""
        req = yield from self.isend(buf, dst, tag, comm)
        yield from self.wait(req)

    def recv(self, nbytes: int, src: int = ANY_SOURCE, tag: int = ANY_TAG,
             comm: Optional[Communicator] = None,
             addr: Optional[int] = None):
        """MPI_Recv: returns (data, status)."""
        req = yield from self.irecv(nbytes, src, tag, comm, addr)
        status = yield from self.wait(req)
        return req.data if req.data is not None else b"", status

    def sendrecv(self, buf: Buffer, dst: int, sendtag: int,
                 recv_nbytes: int, src: int, recvtag: int,
                 comm: Optional[Communicator] = None):
        """MPI_Sendrecv (deadlock-free by construction)."""
        rreq = yield from self.irecv(recv_nbytes, src, recvtag, comm)
        sreq = yield from self.isend(buf, dst, sendtag, comm)
        yield from self.wait(sreq)
        status = yield from self.wait(rreq)
        return rreq.data if rreq.data is not None else b"", status

    # -- loopback ----------------------------------------------------------------

    def _match_loopback(self, context: int,
                        tag: int) -> Optional[Tuple[int, bytes]]:
        """Claim a queued self-send; returns (matched tag, data)."""
        for i, (ctx, mtag, data) in enumerate(self._loopback):
            if ctx == context and (tag == ANY_TAG or tag == mtag):
                del self._loopback[i]
                return mtag, data
        return None
