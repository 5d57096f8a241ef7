"""Measurement kernels for the paper's MPI figures (7–11).

* :func:`mpi_ring_latency` — Figs 8/10: "sending messages around a ring of
  4 nodes using MPI_Send and MPI_Recv.  All latencies shown are the time
  per hop (the time around the ring divided by 4)."
* :func:`mpi_bandwidth` — Figs 9/11: one-way point-to-point bandwidth.
* :func:`am_store_latency` — the raw ``am_store`` reference curve of
  Figs 8/10.
* :func:`protocol_bandwidth` — Fig 7: buffered vs rendez-vous vs hybrid,
  forced via configuration.
* :func:`mpi_stream` — the one two-node blocking send/recv stream under
  an MPI-AM configuration, which Fig 7 and the MPI ablations time.
"""

from __future__ import annotations

from typing import Optional

from repro.am import attach_spam
from repro.bench.harness import run_programs
from repro.hardware import build_sp_machine
from repro.hardware.params import MachineParams, machine_params
from repro.mpi import OPTIMIZED, UNOPTIMIZED, attach_mpi, attach_mpif
from repro.mpi.config import variant as cfg_variant
from repro.sim import Simulator

#: MPI stack builders, keyed by the curve names used in the figures
MPI_VARIANTS = ("am_store", "unopt_mpi_am", "opt_mpi_am", "mpi_f")


def _build(variant_name: str, machine):
    if variant_name == "mpi_f":
        return attach_mpif(machine)
    attach_spam(machine)
    cfg = OPTIMIZED if variant_name == "opt_mpi_am" else UNOPTIMIZED
    return attach_mpi(machine, cfg)


def mpi_ring_latency(variant_name: str, nbytes: int, node_kind: str = "sp-thin",
                     nprocs: int = 4, iters: int = 16) -> float:
    """Per-hop latency in microseconds (Figs 8/10)."""
    if variant_name == "am_store":
        return am_store_latency(nbytes, node_kind, nprocs, iters)
    machine = build_sp_machine(Simulator(), nprocs, machine_params(node_kind))
    mpis = _build(variant_name, machine)
    data = bytes(nbytes)

    def prog(node):
        rank = node.id
        mpi = mpis[rank]
        for it in range(iters):
            if rank == 0:
                yield from mpi.send(data, 1, tag=it)
                yield from mpi.recv(nbytes, nprocs - 1, tag=it)
            else:
                d, _ = yield from mpi.recv(nbytes, rank - 1, tag=it)
                yield from mpi.send(d, (rank + 1) % nprocs, tag=it)

    run = run_programs(machine, [prog] * nprocs, limit_us=1e9,
                       max_events=40_000_000)
    return run.elapsed_us / iters / nprocs


def am_store_latency(nbytes: int, node_kind: str = "sp-thin",
                     nprocs: int = 4, iters: int = 16) -> float:
    """The bare am_store reference curve: per-hop around the same ring."""
    machine = build_sp_machine(Simulator(), nprocs, machine_params(node_kind))
    attach_spam(machine)
    nbytes = max(nbytes, 1)
    bufs = [(machine.node(r).memory.alloc(nbytes),
             machine.node(r).memory.alloc(nbytes)) for r in range(nprocs)]
    counters = [0] * nprocs

    def bump(rank):
        def handler(token, addr, total, arg):
            counters[rank] += 1
        return handler

    handlers = [bump(r) for r in range(nprocs)]

    def prog(node):
        rank, am = node.id, node.am
        nxt = (rank + 1) % nprocs
        for it in range(iters):
            if rank == 0:
                yield from am.store(1, bufs[0][0], bufs[1][1], nbytes,
                                    handler=handlers[1])
                while counters[0] <= it:
                    yield from am._wait_progress()
            else:
                while counters[rank] <= it:
                    yield from am._wait_progress()
                yield from am.store(nxt, bufs[rank][0], bufs[nxt][1], nbytes,
                                    handler=handlers[nxt])

    run = run_programs(machine, [prog] * nprocs, limit_us=1e9,
                       max_events=40_000_000)
    return run.elapsed_us / iters / nprocs


def mpi_bandwidth(variant_name: str, nbytes: int, node_kind: str = "sp-thin",
                  total: Optional[int] = None) -> float:
    """One-way MPI bandwidth in MB/s (Figs 9/11)."""
    if variant_name == "am_store":
        from repro.bench.bandwidth import measure_bandwidth
        return measure_bandwidth("am_store_async", nbytes,
                                 params=machine_params(node_kind))
    machine = build_sp_machine(Simulator(), 2, machine_params(node_kind))
    mpis = _build(variant_name, machine)
    if total is None:
        total = min(800_000, max(120_000, 6 * nbytes))
    count = max(1, total // max(nbytes, 1))
    data = bytes(nbytes)

    def sender(_):
        reqs = []
        for i in range(count):
            r = yield from mpis[0].isend(data, 1, tag=i)
            reqs.append(r)
        yield from mpis[0].waitall(reqs)

    def receiver(_):
        for i in range(count):
            yield from mpis[1].recv(nbytes, 0, tag=i)

    run = run_programs(machine, [sender, receiver], max_events=80_000_000)
    return count * nbytes / run.elapsed_us


#: Fig 7 protocol forcing: buffered-only, rendez-vous-only, hybrid
PROTOCOL_CONFIGS = {
    # pure buffered, first-fit so a message may fill the whole 16 KB region
    "buffered": cfg_variant(OPTIMIZED, eager_max=16384, hybrid=False,
                            binned_allocator=False),
    "rendezvous": cfg_variant(OPTIMIZED, eager_max=0, hybrid=False),
    "hybrid": cfg_variant(OPTIMIZED, eager_max=0, hybrid=True),
}


def protocol_bandwidth(protocol: str, nbytes: int,
                       node_kind: str = "sp-thin") -> float:
    """Fig 7: bandwidth of one protocol, forced regardless of size."""
    total = min(400_000, max(100_000, 5 * nbytes))
    count = max(1, total // max(nbytes, 1))
    elapsed = mpi_stream(PROTOCOL_CONFIGS[protocol], nbytes, count,
                         machine_params(node_kind))
    return count * nbytes / elapsed


def mpi_stream(cfg, nbytes: int, count: int,
               params: Optional[MachineParams] = None) -> float:
    """Elapsed simulated us while rank 0 sends ``count`` blocking
    ``nbytes`` messages that rank 1 receives in order, over MPI-AM
    configured by ``cfg`` (SP thin nodes unless ``params`` says
    otherwise)."""
    machine = build_sp_machine(Simulator(), 2, params)
    attach_spam(machine)
    mpis = attach_mpi(machine, cfg)
    data = bytes(nbytes)

    def sender(_):
        for i in range(count):
            yield from mpis[0].send(data, 1, tag=i)

    def receiver(_):
        for i in range(count):
            yield from mpis[1].recv(nbytes, 0, tag=i)

    return run_programs(machine, [sender, receiver],
                        max_events=80_000_000).elapsed_us
