"""MPI over Active Messages — MPICH architecture (§4).

The implementation mirrors the paper's MPICH port:

* an **abstract device interface** (:mod:`repro.mpi.adi`) whose basic
  point-to-point primitives run over SP AM;
* a **buffered protocol** for small messages: each receiver dedicates a
  16 KB region per peer; senders allocate space in it *locally* (no
  communication), ``am_store`` the envelope + payload, and get the space
  back through free replies (:mod:`repro.mpi.protocol`);
* a **rendez-vous protocol** for large messages, with the AM-rule-imposed
  deferral of the data store to the progress engine;
* the paper's §4.2 optimizations, each independently switchable for the
  ablation benchmarks: binned receive-buffer allocation, combined free
  replies, and the **hybrid** buffered/rendez-vous protocol that ships a
  4 KB prefix while waiting for the receive address;
* MPICH's **generic collectives** built on point-to-point — including the
  naive ``Alltoall`` whose hot-spotting the paper blames for FT's gap;
* **MPI-F** (:mod:`repro.mpi.mpif`), IBM's native MPI, modelled over the
  same transport substrate MPL uses, with its published protocol shape
  (eager/rendez-vous switch and the §4.3 bandwidth dip).

The API is the subset the paper's programs and the conformance campaign
call: send/recv, isend/irecv with the wait family, sendrecv, and the
barrier, bcast, reduce, allreduce, gather, alltoall and scan collectives
(docs/architecture.md lists each public call with its caller).
"""

from repro.mpi.comm import Communicator
from repro.mpi.config import MPIConfig, OPTIMIZED, UNOPTIMIZED
from repro.mpi.mpif import attach_mpif
from repro.mpi.mpi import MPI, attach_mpi
from repro.mpi.request import Request
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status

__all__ = [
    "MPI",
    "attach_mpi",
    "attach_mpif",
    "MPIConfig",
    "OPTIMIZED",
    "UNOPTIMIZED",
    "Communicator",
    "Request",
    "Status",
    "ANY_SOURCE",
    "ANY_TAG",
]
