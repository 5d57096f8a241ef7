"""Shared machinery for the NAS kernels: variants, grids, verification."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.am import attach_spam
from repro.bench.harness import run_programs
from repro.hardware import build_sp_machine
from repro.hardware.params import machine_params
from repro.mpi import OPTIMIZED, UNOPTIMIZED, attach_mpi, attach_mpif
from repro.sim import Simulator

#: the MPI variants Table 6 compares (plus the unoptimized ablation)
VARIANTS = ("mpi-am", "mpi-f", "mpi-am-unopt")

#: bounds of one kernel run: simulated time and events
_LIMIT_US = 5e9
_MAX_EVENTS = 400_000_000


@dataclass
class NASResult:
    """One kernel run."""

    name: str
    variant: str
    nprocs: int
    elapsed_s: float
    verified: bool
    stats: Dict = field(default_factory=dict)


def build_variant(variant: str, nprocs: int):
    """Build a 16-thin-node SP with the chosen MPI stack."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; one of {VARIANTS}")
    sim = Simulator()
    machine = build_sp_machine(sim, nprocs, machine_params("sp-thin"))
    if variant == "mpi-f":
        mpis = attach_mpif(machine)
    else:
        attach_spam(machine)
        cfg = OPTIMIZED if variant == "mpi-am" else UNOPTIMIZED
        mpis = attach_mpi(machine, cfg)
    return machine, mpis


def run_nas_kernel(name: str, variant: str, nprocs: int,
                   make_prog: Callable) -> NASResult:
    """Run ``make_prog(machine, mpis, rank)`` on every rank, timed."""
    machine, mpis = build_variant(variant, nprocs)
    checks: List[bool] = []

    def wrapped(node):
        ok = yield from make_prog(machine, mpis, node.id)
        checks.append(bool(ok))

    run = run_programs(machine, [wrapped] * nprocs, limit_us=_LIMIT_US,
                       max_events=_MAX_EVENTS)
    return NASResult(name=name, variant=variant, nprocs=nprocs,
                     elapsed_s=run.elapsed_us / 1e6,
                     verified=len(checks) == nprocs and all(checks))


def grid_2d(nprocs: int) -> Tuple[int, int]:
    """Near-square 2D process grid (BT/SP/LU/MG decomposition)."""
    px = int(np.sqrt(nprocs))
    while nprocs % px:
        px -= 1
    return px, nprocs // px


def neighbors_2d(rank: int, px: int, py: int) -> Dict[str, Optional[int]]:
    """Torus-free 2D neighbourhood (None at the domain edge)."""
    x, y = rank % px, rank // px
    return {
        "west": rank - 1 if x > 0 else None,
        "east": rank + 1 if x < px - 1 else None,
        "south": rank - px if y > 0 else None,
        "north": rank + px if y < py - 1 else None,
    }


def face_pattern(rank: int, it: int, salt: int, count: int) -> np.ndarray:
    """Deterministic face payload the receiver can verify."""
    base = (rank * 1_000_003 + it * 101 + salt) % 65521
    return (np.arange(count, dtype=np.float64) + base)


def check_pattern(data: bytes, rank: int, it: int, salt: int,
                  count: int) -> bool:
    got = np.frombuffer(data, np.float64)
    return len(got) == count and bool(
        np.array_equal(got, face_pattern(rank, it, salt, count)))


def exchange_faces(mpi, rank: int, neigh: Dict[str, Optional[int]],
                   it: int, salt: int, count: int):
    """Post receives from all neighbours, send to all, verify payloads.

    The standard NAS face exchange: non-blocking receives first, then
    sends, then wait — deadlock-free at any message size.  Returns True
    if every received face carried its sender's expected pattern.
    """
    opposite = {"west": "east", "east": "west",
                "south": "north", "north": "south"}
    recvs = []
    for dname, peer in neigh.items():
        if peer is None:
            continue
        req = yield from mpi.irecv(count * 8, peer,
                                   tag=it * 8 + _dirtag(opposite[dname]))
        recvs.append((peer, req))
    for dname, peer in neigh.items():
        if peer is None:
            continue
        payload = face_pattern(rank, it, salt, count).tobytes()
        yield from mpi.send(payload, peer, tag=it * 8 + _dirtag(dname))
    ok = True
    for peer, req in recvs:
        yield from mpi.wait(req)
        ok = ok and check_pattern(req.data, peer, it, salt, count)
    return ok


_DIRS = {"west": 0, "east": 1, "south": 2, "north": 3}


def _dirtag(dname: str) -> int:
    return _DIRS[dname]


#: (name, callable) registry filled by the kernel modules
NAS_KERNELS: Dict[str, Callable] = {}
