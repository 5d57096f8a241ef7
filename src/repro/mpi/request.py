"""MPI request handles for non-blocking operations."""

from __future__ import annotations

from typing import Optional

from repro.mpi.status import Status


class Request:
    """Handle for MPI_Isend / MPI_Irecv, completed by the Wait family.

    ``rid`` numbers the request within its rank's MPI instance, so a
    checker message naming request #N reads the same in every run.
    """

    def __init__(self, kind: str, comm, peer: int, tag: int, nbytes: int = 0,
                 *, rid: int):
        self.kind = kind  # "send" | "recv"
        self.comm = comm
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.done = False
        #: released via MPI_Request_free; the handle may no longer be
        #: waited on
        self.freed = False
        self.status = Status()
        #: received payload (recv requests)
        self.data: Optional[bytes] = None
        #: destination address in node memory (recv requests with placement)
        self.recv_addr: Optional[int] = None
        #: lifecycle checker (repro.check), None when unchecked
        self.check = None
        self.id = rid

    def complete(self, data: Optional[bytes] = None,
                 source: int = -1, tag: int = -1) -> None:
        ck = self.check
        if ck is not None:
            ck.on_complete(self)
        if self.done:
            raise AssertionError(f"request {self.id} completed twice")
        self.done = True
        if data is not None:
            self.data = data
            self.status.count = len(data)
        if source >= 0:
            self.status.source = source
        if tag >= 0:
            self.status.tag = tag

    def free(self) -> None:
        """MPI_Request_free: release the handle.  Waiting on a freed
        request is erroneous (and flagged by ``repro.check``)."""
        ck = self.check
        if ck is not None:
            ck.on_free(self)
        self.freed = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return (f"Request(#{self.id} {self.kind} peer={self.peer} "
                f"tag={self.tag} {state})")
