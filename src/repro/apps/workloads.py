"""Shared machinery for the Split-C application benchmarks.

Table 5 runs the same applications on five stacks; :func:`build_stack`
assembles each, and :func:`run_app` executes an SPMD program set and
returns the per-node cpu/net profile split plus the app's own result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.am import attach_generic_am, attach_spam
from repro.bench.harness import run_programs
from repro.hardware import build_generic_machine, build_sp_machine
from repro.hardware.machine import Machine
from repro.hardware.params import machine_params
from repro.mpl import attach_mpl_am
from repro.sim import Simulator
from repro.splitc import SplitC, attach_splitc

#: the five columns of Table 5
STACKS = ("sp-am", "sp-mpl", "cm5", "meiko", "unet")

#: bounds of one application run: simulated time and events
_LIMIT_US = 1e12
_MAX_EVENTS = 400_000_000


def build_stack(stack: str, nprocs: int):
    """Build a machine + Split-C runtimes for one Table-5 column."""
    if stack not in STACKS:
        raise ValueError(f"unknown stack {stack!r}; one of {STACKS}")
    sim = Simulator()
    if stack == "sp-am":
        machine = build_sp_machine(sim, nprocs)
        attach_spam(machine)
    elif stack == "sp-mpl":
        machine = build_sp_machine(sim, nprocs)
        attach_mpl_am(machine)
    else:
        machine = build_generic_machine(sim, nprocs, machine_params(stack))
        attach_generic_am(machine)
    return machine, attach_splitc(machine)


@dataclass
class AppResult:
    """Outcome of one application run."""

    stack: str
    elapsed_us: float
    #: per-rank (cpu_us, net_us, total_us)
    splits: List[tuple]
    payload: Dict  # app-specific artifacts (for verification)

    @property
    def elapsed_s(self) -> float:
        return self.elapsed_us / 1e6

    @property
    def cpu_s(self) -> float:
        """Mean per-node compute-phase time, seconds (Figure 4's cpu bar)."""
        return float(np.mean([s[0] for s in self.splits])) / 1e6

    @property
    def net_s(self) -> float:
        """Mean per-node communication-phase time (Figure 4's net bar)."""
        return float(np.mean([s[1] for s in self.splits])) / 1e6


def run_app(stack: str, nprocs: int,
            make_prog: Callable[[Machine, Sequence[SplitC], int], object]
            ) -> AppResult:
    """Run ``make_prog(machine, rts, rank)`` on every rank, profiled."""
    machine, rts = build_stack(stack, nprocs)
    payload: Dict = {}

    def wrapped(node):
        rank = node.id
        rt = rts[rank]
        yield from rt.barrier()
        rt.profile.start()
        result = yield from make_prog(machine, rts, rank)
        yield from rt.barrier()
        rt.profile.stop()
        if result is not None:
            payload[rank] = result

    run_programs(machine, [wrapped] * nprocs, limit_us=_LIMIT_US,
                 max_events=_MAX_EVENTS)
    elapsed = max(rt.profile.total_us for rt in rts)
    return AppResult(stack=stack, elapsed_us=elapsed,
                     splits=[rt.profile.split() for rt in rts],
                     payload=payload)


def keys_for_rank(total_keys: int, nprocs: int, rank: int,
                  seed: int = 12345) -> np.ndarray:
    """Deterministic per-rank key arrays (uint32), same on every stack."""
    rng = np.random.RandomState(seed + rank)
    return rng.randint(0, 2 ** 31, size=total_keys // nprocs).astype(np.int64)
