"""The chaos soak: a fixed op list on the campaign runner, plus a recovery
bound.

``run_soak`` hands the runner of :mod:`repro.check.campaign` one ``ping``
op per ping-pong round, one multi-chunk ``bulk`` store+get and one
``splitc`` phase (barrier, allreduce, ``put_bulk`` + ``sync``) under a
:class:`FaultPlan`, without the sanitizer; the runner checks delivery
order, memory contents, protocol end state and the fault ledgers.  The
soak's own policy bounds recovery time: the lossy run must finish within
a fixed multiple of the identical op list run fault-free, plus a
per-fault allowance.

Everything is deterministic, so a failing ``(seed, loss)`` pair is a
reproducer, and a failing loss soak shrinks with
``shrink_failure(r.seed, nodes=r.nodes, loss=r.loss, op_list=r.ops)``.
``spam-bench soak`` and ``tests/integration/test_chaos_soak.py`` are
thin wrappers over :func:`run_soak`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.am.constants import CHUNK_BYTES
from repro.faults.injector import InjectedFault
from repro.faults.plan import FaultPlan
from repro.obs.core import Observatory


@dataclass
class SoakResult:
    """Everything one soak campaign produced."""

    seed: int
    loss: float
    nodes: int
    chaos: bool
    pingpong: int
    bulk_bytes: int
    #: simulated microseconds the lossy run took
    elapsed_us: float
    #: the identical workload with no faults installed (None if skipped)
    clean_elapsed_us: Optional[float]
    #: elapsed_us must stay below this (None when no clean run)
    recovery_bound_us: Optional[float]
    #: the injector's ledger, in firing order
    injected: List[InjectedFault]
    #: injections per fault kind
    injected_counts: Dict[str, int]
    #: every broken promise, human-readable; empty means the run passed
    violations: List[str]
    #: merged counter snapshot of the lossy run
    counters: Dict[str, float]
    #: the lossy run's observability hub (for trace/report export)
    obs: Observatory = field(repr=False, default=None)
    #: the op list every run ran (what ``shrink_failure`` takes)
    ops: List[dict] = field(default_factory=list, repr=False)

    @property
    def total_injected(self) -> int:
        return len(self.injected)

    def summary_lines(self) -> List[str]:
        """The ``spam-bench soak`` console summary."""
        c = self.counters
        lines = [
            f"soak seed={self.seed} loss={self.loss} nodes={self.nodes}"
            f" chaos={self.chaos}",
            f"  workload: {self.pingpong} ping-pongs/rank,"
            f" {self.bulk_bytes}B bulk/rank, Split-C phase",
            f"  injected: {self.total_injected} faults "
            + (str(dict(sorted(self.injected_counts.items())))
               if self.injected_counts else "{}"),
            f"  recovery: retransmissions={c.get('retransmissions', 0):.0f}"
            f" nacks={c.get('nacks_sent', 0):.0f}"
            f" stall_nacks={c.get('stall_nacks_sent', 0):.0f}"
            f" keepalives={c.get('keepalives_sent', 0):.0f}",
            f"  drops: fabric={c.get('packets_dropped_fault', 0):.0f}"
            f" crc={c.get('rx_dropped_corrupt', 0):.0f}"
            f" overflow={c.get('rx_dropped_overflow', 0):.0f}"
            f" duplicates={c.get('duplicates_dropped', 0):.0f}",
        ]
        if self.clean_elapsed_us is not None:
            lines.append(
                f"  elapsed: {self.elapsed_us:.0f} us"
                f" (clean {self.clean_elapsed_us:.0f} us,"
                f" bound {self.recovery_bound_us:.0f} us)")
        else:
            lines.append(f"  elapsed: {self.elapsed_us:.0f} us")
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  violations: none")
        return lines


def _merge_counters(snapshot_counters: Dict[str, float]) -> Dict[str, float]:
    """Sum per-registry counters (``am[0].retransmissions`` …) by name."""
    merged: Dict[str, float] = {}
    for key, value in snapshot_counters.items():
        name = key.rsplit(".", 1)[-1]
        merged[name] = merged.get(name, 0.0) + value
    return merged


def run_soak(
    seed: int = 7,
    loss: float = 0.01,
    nodes: int = 2,
    pingpong: int = 24,
    bulk_bytes: int = 2 * CHUNK_BYTES + 123,
    chaos: bool = False,
    plan: Optional[FaultPlan] = None,
    compare_clean: bool = True,
    sim_check: Optional[object] = None,
    sample_period_us: Optional[float] = 50.0,
) -> SoakResult:
    """Run the soak op list under a fault plan; return the evidence.

    ``plan`` overrides the generated one; otherwise ``chaos`` selects
    :meth:`FaultPlan.chaos` (all six kinds) over :meth:`FaultPlan.loss`
    (uniform fabric drops) at rate ``loss`` with seed ``seed``.  With
    ``compare_clean`` the identical op list also runs fault-free to
    bound recovery time.  ``sim_check`` is set as the lossy run's
    ``sim.check`` hook — an event-order digest recorder such as
    :class:`repro.check.EventDigest`, for instance.
    ``sample_period_us`` starts the periodic gauge sampler on the lossy
    run (default on at 50 us: the sampler's timers run on the
    unsequenced lane, so they do not perturb event-order digests; pass
    ``None`` to disable).
    """
    # the one runner lives in repro.check, which imports this package
    from repro.check.campaign import _Run

    if nodes < 2:
        # every rank pings its right neighbour: one node would address
        # itself, which AM refuses deep inside the fault-free run
        raise ValueError(f"soak needs at least 2 nodes, got {nodes}")
    if plan is None:
        plan = (FaultPlan.chaos(seed, loss) if chaos
                else FaultPlan.loss(seed, loss))
    ops = ([{"kind": "ping", "round": i} for i in range(pingpong)]
           + [{"kind": "bulk", "nbytes": bulk_bytes}, {"kind": "splitc"}])

    clean_elapsed = None
    recovery_bound = None
    if compare_clean:
        clean = _Run(nodes, ops, plan=None)
        clean_elapsed = clean.run()
        if clean.violations:
            # the workload must be sound before faults mean anything
            raise AssertionError(
                "fault-free soak run failed: " + "; ".join(clean.violations))

    lossy = _Run(nodes, ops, plan=plan, sample_period_us=sample_period_us)
    if sim_check is not None:
        lossy.sim.check = sim_check
    elapsed = lossy.run()

    injected = list(lossy.injector.injected)
    if clean_elapsed is not None:
        # bounded recovery: a generous but real bound — each fault may
        # cost a few keep-alive/stall-NACK rounds, and compounding losses
        # stretch the whole run, never past a fixed multiple
        recovery_bound = (clean_elapsed * 4.0 + 3_000.0 * len(injected)
                          + 200_000.0)
        if elapsed > recovery_bound:
            lossy.violations.append(
                f"recovery unbounded: lossy run took {elapsed:.0f} us, "
                f"bound was {recovery_bound:.0f} us "
                f"(clean {clean_elapsed:.0f} us, {len(injected)} faults)")

    return SoakResult(
        seed=seed, loss=loss, nodes=nodes, chaos=chaos,
        pingpong=pingpong, bulk_bytes=bulk_bytes,
        elapsed_us=elapsed, clean_elapsed_us=clean_elapsed,
        recovery_bound_us=recovery_bound,
        injected=injected, injected_counts=lossy.injector.counts(),
        violations=lossy.violations,
        counters=_merge_counters(lossy.obs.snapshot()["counters"]),
        obs=lossy.obs, ops=ops,
    )
