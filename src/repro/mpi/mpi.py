"""The assembled MPI library over Active Messages (``node.mpi``)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.hardware.machine import Machine
from repro.mpi.adi import ADI
from repro.mpi.collectives import MPICollectives
from repro.mpi.comm import Communicator
from repro.mpi.config import OPTIMIZED, MPIConfig
from repro.mpi.p2p import MPIPoint2Point


class MPI(MPIPoint2Point, MPICollectives):
    """MPI on one node: MPICH upper layers over the AM-based ADI (§4)."""

    def __init__(self, node, nprocs: int, config: MPIConfig,
                 region_addrs: Dict[Tuple[int, int], int]):
        if node.am is None:
            raise ValueError("attach an AM layer before MPI")
        self.node = node
        self.rank = node.id
        self.nprocs = nprocs
        self.comm_world = Communicator(list(range(nprocs)), node.id,
                                       context=1)
        self.adi = ADI(node, nprocs, config, region_addrs)
        self._loopback: List[Tuple[int, int, bytes]] = []
        self._coll_seq: Dict[int, int] = {}
        self._requests_made = 0
        node.mpi = self


def attach_mpi(machine: Machine,
               config: Optional[MPIConfig] = None) -> List[MPI]:
    """Install MPI-AM on every node (AM must already be attached).

    Performs the startup exchange of per-peer receive-region addresses:
    each receiver dedicates ``buffer_per_peer`` bytes to every other
    process (§4.1).
    """
    cfg = config if config is not None else OPTIMIZED
    region_addrs: Dict[Tuple[int, int], int] = {}
    for receiver in machine.nodes:
        for sender in machine.nodes:
            if receiver.id == sender.id:
                continue
            region_addrs[(receiver.id, sender.id)] = receiver.memory.alloc(
                cfg.buffer_per_peer)
    return [MPI(node, machine.nprocs, cfg, region_addrs)
            for node in machine.nodes]
