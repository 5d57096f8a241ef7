"""Blocked matrix multiply in Split-C (§3, Table 5's ``mm`` rows).

The matrix is an ``n x n`` grid of ``b x b`` double blocks distributed
round-robin; the owner of each C block fetches the needed A and B blocks
with split-phase bulk gets and runs a local dgemm.  The paper's two
configurations:

* ``mm 128x128`` — 4x4 blocks of 128x128 doubles (bulk-transfer friendly),
* ``mm 16x16``  — 16x16 blocks of 16x16 doubles (2 KB messages, where
  MPL's per-message overhead shows).

The dgemm is computed for real (numpy) so tests verify the product; its
time is charged analytically at the host's calibrated flop rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.workloads import AppResult, run_app
from repro.splitc import GlobalPtr


def _owner(i: int, j: int, n: int, nprocs: int) -> int:
    return (i * n + j) % nprocs


@dataclass
class _Layout:
    """Where every block of A, B, C lives: (proc, addr)."""

    n: int
    b: int
    blocks: Dict[Tuple[str, int, int], GlobalPtr]

    @property
    def block_bytes(self) -> int:
        return self.b * self.b * 8


def _allocate(machine, n: int, b: int) -> _Layout:
    """Symmetric allocation of all blocks, with deterministic contents."""
    rng = np.random.RandomState(7)
    blocks: Dict[Tuple[str, int, int], GlobalPtr] = {}
    for name in ("A", "B", "C"):
        for i in range(n):
            for j in range(n):
                proc = _owner(i, j, n, machine.nprocs)
                addr, arr = machine.node(proc).memory.alloc_array(
                    b * b, np.float64)
                if name == "C":
                    arr[:] = 0.0
                else:
                    arr[:] = rng.uniform(-1, 1, size=b * b)
                blocks[(name, i, j)] = GlobalPtr(proc, addr)
    return _Layout(n=n, b=b, blocks=blocks)


def _block_view(machine, gp: GlobalPtr, b: int) -> np.ndarray:
    mem = machine.node(gp.proc).memory
    return np.frombuffer(mem.view(gp.addr, b * b * 8), np.float64).reshape(b, b)


def matmul_program(machine, rts, rank: int, layout: _Layout,
                   service: str = "poll"):
    """One rank's share of C = A x B, with split-phase prefetching.

    The Split-C blocked matmul issues the gets for step t+1 *before*
    computing step t, so the remote owners' service delay (they only poll
    between their own dgemms) is hidden behind local computation — without
    this, every get can stall for up to one remote block-multiply.

    ``service`` selects how remote gets are served during the dgemm:
    ``"poll"`` (sprinkled am_poll checks, the paper's §1.1 suggestion) or
    ``"interrupt"`` (the §1.1 interrupt-driven alternative).
    """
    rt = rts[rank]
    n, b = layout.n, layout.b
    nbytes = layout.block_bytes
    mem = machine.node(rank).memory
    # double-buffered scratch for fetched A and B blocks
    bufs = [(mem.alloc(nbytes), mem.alloc(nbytes)) for _ in range(2)]
    # the (i, j, k) schedule of this rank's block-multiplies
    steps = [(i, j, k)
             for i in range(n) for j in range(n)
             if _owner(i, j, n, machine.nprocs) == rank
             for k in range(n)]

    def fetch(step_idx: int, slot: int):
        i, j, k = steps[step_idx]
        yield from rt.get_bulk(bufs[slot][0], layout.blocks[("A", i, k)],
                               nbytes)
        yield from rt.get_bulk(bufs[slot][1], layout.blocks[("B", k, j)],
                               nbytes)

    if steps:
        yield from fetch(0, 0)
    for t in range(len(steps)):
        yield from rt.sync()  # operands for step t have landed
        cur = t % 2
        if t + 1 < len(steps):
            yield from fetch(t + 1, (t + 1) % 2)  # prefetch next operands
        i, j, k = steps[t]
        c = _block_view(machine, layout.blocks[("C", i, j)], b)
        a = np.frombuffer(mem.view(bufs[cur][0], nbytes),
                          np.float64).reshape(b, b)
        bb = np.frombuffer(mem.view(bufs[cur][1], nbytes),
                           np.float64).reshape(b, b)
        c += a @ bb
        flops = 2.0 * b * b * b
        if service == "interrupt":
            from repro.am.interrupts import compute_interruptible

            yield from compute_interruptible(rt.am,
                                             flops * rt.node.host.flop_us)
            rt.profile.cpu_us += flops * rt.node.host.flop_us
        else:
            # the dgemm polls periodically so this node keeps serving its
            # peers' gets while it computes (§1.1's explicit poll checks)
            yield from rt.profile.flops_polled(flops, rt.am)
    yield from rt.barrier()


def run_matmul(stack: str, nprocs: int = 8, n: int = 4, b: int = 128,
               verify: bool = False, service: str = "poll") -> AppResult:
    """Run one Table-5 matmul configuration on one stack.

    Paper scale: ``n=4, b=128`` ("mm 128x128") and ``n=16, b=16``
    ("mm 16x16"); pass ``verify=True`` to check C == A @ B afterwards;
    ``service="interrupt"`` uses interrupt-driven reception during the
    dgemms instead of sprinkled polls (SP AM stack only).
    """
    layout_holder: List[_Layout] = []
    machine_holder: List = []

    def make_prog(machine, rts, rank):
        if not layout_holder:
            layout_holder.append(_allocate(machine, n, b))
            machine_holder.append(machine)
        return matmul_program(machine, rts, rank, layout_holder[0],
                              service=service)

    result = run_app(stack, nprocs, make_prog)
    if verify:
        result.payload["verified"] = verify_matmul(machine_holder[0],
                                                   layout_holder[0])
    return result


def verify_matmul(machine, layout: _Layout) -> bool:
    n, b = layout.n, layout.b
    size = n * b
    A = np.zeros((size, size))
    B = np.zeros((size, size))
    C = np.zeros((size, size))
    for i in range(n):
        for j in range(n):
            sl = np.s_[i * b:(i + 1) * b, j * b:(j + 1) * b]
            A[sl] = _block_view(machine, layout.blocks[("A", i, j)], b)
            B[sl] = _block_view(machine, layout.blocks[("B", i, j)], b)
            C[sl] = _block_view(machine, layout.blocks[("C", i, j)], b)
    return bool(np.allclose(C, A @ B, atol=1e-9 * size))
