"""Utilities for running SPMD node programs on a simulated machine.

A *node program* is a generator factory ``prog(node) -> generator``; the
harness spawns one per node, runs the simulation until the programs that
matter finish, and reports the elapsed simulated time.  Background service
loops (e.g. a receiver that polls until told to stop) are supported via
``serve_until``, which is also the server rank of the one two-node AM
stream every bandwidth and latency bench runs
(``repro.bench.bandwidth._measure_am``) on the nodes :func:`am_pair` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.am import attach_am
from repro.hardware.machine import (
    Machine,
    build_generic_machine,
    build_sp_machine,
)
from repro.hardware.params import MachineParams
from repro.sim import Simulator
from repro.sim.process import Process


@dataclass
class NodeProgramSet:
    """Results of a multi-node run."""

    machine: Machine
    processes: List[Process]
    elapsed_us: float

    def result(self, rank: int):
        return self.processes[rank].result


def run_programs(
    machine: Machine,
    programs: Sequence[Callable],
    wait_for: Optional[Sequence[int]] = None,
    limit_us: float = 1e10,
    max_events: Optional[int] = None,
) -> NodeProgramSet:
    """Spawn ``programs[i](machine.node(i))`` on each node and run.

    :param wait_for: ranks whose completion ends the run (default: all).
        Programs not waited for (e.g. infinite server loops) are abandoned
        when the waited-for set finishes.
    """
    if len(programs) != machine.nprocs:
        raise ValueError(
            f"{len(programs)} programs for {machine.nprocs} nodes"
        )
    for rank in wait_for or ():
        if not 0 <= rank < machine.nprocs:
            raise ValueError(
                f"wait_for rank {rank} is not in range({machine.nprocs})")
    sim = machine.sim
    t0 = sim.now
    procs = [
        sim.spawn(prog(machine.node(i)), name=f"rank{i}")
        for i, prog in enumerate(programs)
    ]
    targets = procs if wait_for is None else [procs[i] for i in wait_for]
    sim.run_until_processes_done(targets, limit=limit_us, max_events=max_events)
    return NodeProgramSet(machine, procs, sim.now - t0)


def am_pair(params: Optional[MachineParams] = None, obs=None) -> Machine:
    """Two nodes of ``params`` (SP thin nodes by default, or any Table 4
    peer) with AM attached; an Observatory ``obs`` is attached before AM.
    """
    sim = Simulator()
    if params is None or params.nodes_kind == "sp":
        machine = build_sp_machine(sim, 2, params)
    else:
        machine = build_generic_machine(sim, 2, params)
    if obs is not None:
        obs.attach(machine)
    attach_am(machine)
    return machine


def serve_until(am, flag: list):
    """A standard background receiver: poll until ``flag[0]`` is truthy.

    Use as the program for passive ranks::

        done = [0]
        run_programs(m, [sender(done), lambda n: serve_until(n.am, done)],
                     wait_for=[0])
    """
    while not flag[0]:
        yield from am._wait_progress()
