"""The chaos soak harness: a full AM workload under injected faults.

``run_soak`` builds a fresh SP machine, attaches the observability hub,
SP AM, and the Split-C runtime, installs a :class:`FaultPlan`, and drives
three workload phases on every node:

1. **ping-pong** — sequenced request/reply traffic (every message number
   is recorded on both sides, so exactly-once in-order delivery is
   checked literally, not statistically);
2. **bulk transfer** — a blocking ``am_store`` spanning multiple chunks
   plus a partial tail, read back with ``am_get`` and compared
   byte-for-byte;
3. **Split-C** — barrier, allreduce, and a split-phase ``put_bulk`` +
   ``sync``, exercising the runtime's handler traffic under loss.

After the phases, every rank broadcasts a done marker, then runs
:func:`drain`: it serves the network until every rank has announced done
and its own endpoint reports :meth:`SPAM.drained
<repro.am.endpoint.SPAM.drained>` with no packet arrival for
:data:`_DRAIN_GRACE_US`, a window that outlasts the keep-alive backoff.
The predicate is node-local: a rank reads only its own endpoint, adapter
and windows.  :func:`drain` and :func:`run_capturing` are shared with
:mod:`repro.check.campaign`: both harnesses run their ranks through
:func:`repro.bench.harness.run_programs`, which :func:`run_capturing`
wraps to turn an aborting error into a violation.  The run then
reconciles three ledgers against each other:

* the workload's own records (delivery order, memory contents),
* the protocol state machines (window invariants fail loudly via
  :class:`~repro.am.window.MidChunkAckError` and friends),
* the fault ledgers: every fault the injector fired must appear in the
  observability hub's fault-event log with the victim's trace_id, and
  every lossy kind must have a matching ``packet_dropped`` event.

Recovery time is bounded by running the identical workload once with no
faults installed and requiring the lossy run to finish within a fixed
multiple of the clean run plus a per-fault allowance.

Everything — the simulator, the workload, and the injector — is
deterministic, so a failing ``(seed, loss)`` pair is a reproducer, not a
flake.  ``spam-bench soak`` and ``tests/integration/test_chaos_soak.py``
are thin wrappers over :func:`run_soak`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.bench.harness import run_programs
from repro.faults.injector import InjectedFault, install_faults
from repro.faults.payload import periodic_payload
from repro.faults.plan import FaultPlan
from repro.hardware.machine import Machine, build_sp_machine
from repro.obs.core import Observatory
from repro.sim import Simulator
from repro.sim.errors import SimulationError
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import attach_splitc

#: fault kinds that destroy the packet and must therefore also show up
#: as a ``packet_dropped`` observability event
_LOSSY_KINDS = frozenset({"drop", "corrupt", "rx_overflow"})

#: how long a rank must stay *locally* quiet (all peers announced done,
#: windows drained, FIFOs empty, no packet arrivals) before it leaves its
#: drain loop.  Must exceed the longest silence the recovery machinery
#: can produce while a peer still needs this rank: keep-alives back off
#: up to ``keepalive_idle * 64`` = 25.6 ms between sends, so anything a
#: peer still wants re-served interrupts a 30 ms window
_DRAIN_GRACE_US = 30_000.0

#: simulated-time bound of one soak or campaign run: a run that recovers
#: finishes far inside it, so reaching it means recovery diverged
_RUN_LIMIT_US = 5e7

#: Split-C put_bulk payload in phase 3 (small on purpose: the phase
#: exercises handler traffic, not bandwidth)
_SPLITC_BYTES = 1024


# ---------------------------------------------------------------------------
# the drain and the run capture (shared with repro.check.campaign)
# ---------------------------------------------------------------------------

def drain(sim: Simulator, rx, quiet: Callable[[], bool],
          wait: Callable[[], Generator]):
    """Serve the network until ``quiet()`` has held, with no packet
    arrival on the adapter counter ``rx``, for :data:`_DRAIN_GRACE_US`.

    ``wait`` is the rank's blocking wait (``am._wait_progress``, or the
    MPI ADI's, which also pumps rendezvous and owed frees).
    Recovery traffic a peer still needs from this rank (NACK service,
    re-acks for retransmissions) arrives within wire latency, bumps
    ``rx`` and restarts the window, so outlasting the keep-alive
    machinery's longest backoff means nobody needs this rank anymore.
    """
    quiet_since = None
    last_rx = rx.value
    while True:
        if rx.value == last_rx and quiet():
            if quiet_since is None:
                quiet_since = sim.now
            elif sim.now - quiet_since >= _DRAIN_GRACE_US:
                return
        else:
            quiet_since = None
            last_rx = rx.value
        yield from wait()


def run_capturing(machine: Machine, programs: List[Callable]
                  ) -> Optional[str]:
    """Run one program per node through :func:`run_programs` within
    :data:`_RUN_LIMIT_US`; return the aborting error as a violation
    string, or None when the run finished."""
    try:
        run_programs(machine, programs, limit_us=_RUN_LIMIT_US)
    except (SimulationError, ValueError, AssertionError) as exc:
        # SimTimeoutError (unbounded recovery, deadlock), window invariant
        # violations (MidChunkAckError &c.) and accounting assertions
        return f"{type(exc).__name__}: {exc}"
    return None


# ---------------------------------------------------------------------------
# workload handlers (one shared HandlerTable per machine keeps ids aligned)
# ---------------------------------------------------------------------------

def _h_ping(token, src, i):
    node = token.am.node
    node.soak_pings.setdefault(src, []).append(i)
    yield from token.reply_2(_h_pong, node.id, i)


def _h_pong(token, src, i):
    token.am.node.soak_pongs.setdefault(src, []).append(i)


def _h_done(token, src):
    # done-broadcast marker: ``src`` has finished its workload phases
    token.am.node.soak_done_from.add(src)


def _pattern(rank: int, nbytes: int) -> bytes:
    """Deterministic per-rank payload (verifiable byte-for-byte):
    byte ``j`` is ``(17 * rank + 3 * j + 7) % 251``."""
    return periodic_payload(17 * rank + 7, 3, nbytes)


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

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

    @property
    def ok(self) -> bool:
        return not self.violations

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


# ---------------------------------------------------------------------------
# one campaign (shared by the clean and lossy runs)
# ---------------------------------------------------------------------------

class _Campaign:
    """One machine + workload execution, with or without faults."""

    def __init__(self, nodes: int, pingpong: int, bulk_bytes: int,
                 plan: Optional[FaultPlan],
                 sample_period_us: Optional[float] = None):
        self.nodes = nodes
        self.pingpong = pingpong
        self.bulk_bytes = bulk_bytes
        self.violations: List[str] = []
        self.sim = Simulator()
        self.machine = build_sp_machine(self.sim, nodes)
        self.obs = Observatory().attach(self.machine)
        if sample_period_us is not None:
            # gauge sampler for critical-path reports; its timers run on
            # the unsequenced lane so the event-order digests don't see
            # them, and the drain predicate never consults the raw
            # pending count, so live sampler timers can't stall
            # quiescence either
            self.obs.start_sampler(period_us=sample_period_us)
        self.ams = attach_spam(self.machine)
        self.rts = attach_splitc(self.machine)
        # pre-register the workload handlers (SPMD discipline): their ids
        # are fixed before any rank runs instead of at first send
        for h in (_h_ping, _h_pong, _h_done):
            self.ams[0].register(h)
        self.injector = (install_faults(self.machine, plan)
                         if plan is not None else None)
        # per-rank buffer addresses, decided up front so every rank knows
        # its peer's layout
        self.addrs: List[Dict[str, int]] = []
        for node in self.machine.nodes:
            node.soak_pings = {}
            node.soak_pongs = {}
            node.soak_done_from = set()
            node.soak_violations = []
            self.addrs.append({
                "bulk_src": node.memory.alloc(bulk_bytes),
                "bulk_dst": node.memory.alloc(bulk_bytes),
                "bulk_back": node.memory.alloc(bulk_bytes),
                "sc_src": node.memory.alloc(_SPLITC_BYTES),
                "sc_dst": node.memory.alloc(_SPLITC_BYTES),
            })

    # -- the per-rank program ------------------------------------------------

    def _program(self, node):
        rank = node.id
        am = self.ams[rank]
        rt = self.rts[rank]
        peer = (rank + 1) % self.nodes

        # phase 1: ping-pong around the ring, one in flight per rank
        for i in range(self.pingpong):
            yield from am.request_2(peer, _h_ping, rank, i)
            while len(node.soak_pongs.get(peer, ())) < i + 1:
                yield from am._wait_progress()

        # phase 2: multi-chunk blocking store, then read it back
        node.memory.write(self.addrs[rank]["bulk_src"],
                          _pattern(rank, self.bulk_bytes))
        yield from am.store(peer, self.addrs[rank]["bulk_src"],
                            self.addrs[peer]["bulk_dst"], self.bulk_bytes)
        yield from am.get(peer, self.addrs[peer]["bulk_dst"],
                          self.addrs[rank]["bulk_back"], self.bulk_bytes)

        # phase 3: Split-C — barrier, allreduce, split-phase put
        yield from rt.barrier()
        total = yield from rt.allreduce_int(rank + 1)
        expect = self.nodes * (self.nodes + 1) // 2
        if total != expect:
            # recorded per node, reported with the rank's final checks
            node.soak_violations.append(
                f"rank {rank}: allreduce returned {total}, expected {expect}")
        node.memory.write(self.addrs[rank]["sc_src"],
                          _pattern(rank + 100, _SPLITC_BYTES))
        yield from rt.put_bulk(GlobalPtr(peer, self.addrs[peer]["sc_dst"]),
                               self.addrs[rank]["sc_src"], _SPLITC_BYTES)
        yield from rt.sync()
        yield from rt.barrier()

        # done-broadcast: announce this rank's phases are over.  The
        # markers ride the same reliable AM channel as the workload, so a
        # dropped marker is retransmitted like any other request.
        for off in range(1, self.nodes):
            yield from am.request_1((rank + off) % self.nodes, _h_done, rank)
        node.soak_done_from.add(rank)

        # drain: serve the network until every rank has announced done
        # and this rank's endpoint has been drained, with not a single
        # packet arrival, for a full grace window
        done_from = node.soak_done_from
        yield from drain(
            self.sim, am.adapter._c_rx_packets,
            lambda: len(done_from) == self.nodes and am.drained(),
            am._wait_progress)

    # -- execution + checks ---------------------------------------------------

    def run(self) -> float:
        abort = run_capturing(self.machine, [self._program] * self.nodes)
        if abort is not None:
            self.violations.append(abort)
        for node in self.machine.nodes:
            self.violations.extend(node.soak_violations)
            self.violations.extend(self._check_rank(node.id))
        return self.sim.now

    # -- per-rank evidence -----------------------------------------------------

    def _check_rank(self, rank: int) -> List[str]:
        """Delivery + final-state checks that touch only ``rank``'s node.

        Cross-node assertions are phrased from the writer's perspective
        but *verified* on the node that owns the memory: checking rank
        ``r`` validates the bulk store and Split-C put that ``r-1``
        landed here, so the union over all ranks covers every transfer.
        """
        out: List[str] = []
        expect = list(range(self.pingpong))
        node = self.machine.nodes[rank]
        peer = (rank + 1) % self.nodes
        prev = (rank - 1) % self.nodes
        got = node.soak_pings.get(prev, [])
        if got != expect:
            out.append(
                f"rank {rank}: pings from {prev} delivered as "
                f"{_abbrev(got)}, expected 0..{self.pingpong - 1} "
                f"exactly once in order")
        got = node.soak_pongs.get(peer, [])
        if got != expect:
            out.append(
                f"rank {rank}: pongs from {peer} delivered as "
                f"{_abbrev(got)}, expected 0..{self.pingpong - 1} "
                f"exactly once in order")
        if node.memory.read(self.addrs[rank]["bulk_dst"],
                            self.bulk_bytes) != _pattern(prev,
                                                         self.bulk_bytes):
            out.append(f"rank {prev}: bulk store to {rank} corrupted")
        if node.memory.read(self.addrs[rank]["bulk_back"],
                            self.bulk_bytes) != _pattern(rank,
                                                         self.bulk_bytes):
            out.append(f"rank {rank}: bulk get readback from {peer} corrupted")
        if node.memory.read(self.addrs[rank]["sc_dst"],
                            _SPLITC_BYTES) != _pattern(prev + 100,
                                                       _SPLITC_BYTES):
            out.append(f"rank {prev}: Split-C put_bulk to {rank} corrupted")
        am = self.ams[rank]
        for dst, peer_state in am._peers.items():
            for ch, win in enumerate(peer_state.send):
                if win.has_unacked:
                    out.append(
                        f"rank {rank}: send window to {dst} ch{ch} "
                        f"still holds {win.in_flight} unacked packets")
            for ch, rwin in enumerate(peer_state.recv):
                if rwin.has_partial_assembly:
                    out.append(
                        f"rank {rank}: chunk from {dst} ch{ch} "
                        f"never completed reassembly")
        if am._active_sends:
            out.append(
                f"rank {rank}: {len(am._active_sends)} bulk ops "
                f"never completed")
        return out

    def reconcile_faults(self) -> None:
        """Every injected fault must be visible in the obs ledger."""
        if self.injector is None:
            return
        events = self.obs.fault_events
        by_kind: Dict[str, List[Dict]] = {}
        for ev in events:
            by_kind.setdefault(ev["kind"], []).append(ev)
        for f in self.injector.injected:
            if f.trace_id <= 0:
                self.violations.append(
                    f"injected {f.kind} at t={f.t:.1f} hit an untraced "
                    f"packet (no trace_id)")
                continue
            if not any(ev["trace_id"] == f.trace_id and ev["t"] == f.t
                       for ev in by_kind.get(f.kind, ())):
                self.violations.append(
                    f"injected {f.kind} on trace {f.trace_id} at "
                    f"t={f.t:.1f} missing from obs fault events")
            if f.kind in _LOSSY_KINDS and not any(
                    ev["trace_id"] == f.trace_id
                    for ev in by_kind.get("packet_dropped", ())):
                self.violations.append(
                    f"injected {f.kind} on trace {f.trace_id} has no "
                    f"matching packet_dropped event")


def _merge_counters(snapshot_counters: Dict[str, float]) -> Dict[str, float]:
    """Sum per-registry counters (``am[0].retransmissions`` …) by name."""
    merged: Dict[str, float] = {}
    for key, value in snapshot_counters.items():
        name = key.rsplit(".", 1)[-1]
        merged[name] = merged.get(name, 0.0) + value
    return merged


def _abbrev(seq: List[int]) -> str:
    """``seq``, or its first 12 items and its length when longer."""
    if len(seq) <= 12:
        return str(seq)
    return f"[{', '.join(map(str, seq[:12]))}, ...] ({len(seq)} items)"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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
    """Run the soak workload under a fault plan; return the evidence.

    ``plan`` overrides the generated one; otherwise ``chaos`` selects
    :meth:`FaultPlan.chaos` (all six kinds) over :meth:`FaultPlan.loss`
    (uniform fabric drops) at rate ``loss`` with seed ``seed``.  With
    ``compare_clean`` the identical workload also runs fault-free to
    bound recovery time.  ``sim_check`` is set as the lossy campaign's
    ``sim.check`` hook — an event-order digest recorder such as
    :class:`repro.check.EventDigest`, for instance.
    ``sample_period_us`` starts the periodic gauge sampler on the lossy
    campaign (default on at 50 us: the sampler's timers run on the
    unsequenced lane, so they do not perturb event-order digests; pass
    ``None`` to disable).
    """
    if nodes < 2:
        # every rank pings its right neighbour: one node would address
        # itself, which AM refuses deep inside the fault-free run
        raise ValueError(f"soak needs at least 2 nodes, got {nodes}")
    if plan is None:
        plan = (FaultPlan.chaos(seed, loss) if chaos
                else FaultPlan.loss(seed, loss))

    clean_elapsed = None
    recovery_bound = None
    if compare_clean:
        clean = _Campaign(nodes, pingpong, bulk_bytes, plan=None)
        clean_elapsed = clean.run()
        if clean.violations:
            # the workload must be sound before faults mean anything
            raise AssertionError(
                "fault-free soak run failed: " + "; ".join(clean.violations))

    lossy = _Campaign(nodes, pingpong, bulk_bytes, plan=plan,
                      sample_period_us=sample_period_us)
    if sim_check is not None:
        lossy.sim.check = sim_check
    elapsed = lossy.run()
    lossy.reconcile_faults()

    injected = list(lossy.injector.injected)
    counts = lossy.injector.counts()
    if clean_elapsed is not None:
        # bounded recovery: a generous but real bound — each fault may
        # cost a few keep-alive/stall-NACK rounds, and compounding losses
        # stretch the whole run, never past a fixed multiple
        recovery_bound = clean_elapsed * 4.0 + 3_000.0 * len(injected) + 200_000.0
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
        injected=injected, injected_counts=counts,
        violations=lossy.violations,
        counters=_merge_counters(lossy.obs.snapshot()["counters"]),
        obs=lossy.obs,
    )
