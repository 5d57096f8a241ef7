"""The one fault harness: an op list on every rank of a fresh SP machine.

:class:`_Run` builds the machine with the observability hub and SP AM,
attaches the layers its op kinds need (MPI-AM, Split-C), installs a
:class:`~repro.faults.plan.FaultPlan` and, for a campaign, the
:class:`~repro.check.core.Sanitizer`, and runs every op on every rank in
list order.  Ops are self-contained — a p2p op names its sender and its
receiver, a collective its membership, a ring op (``ping``, ``bulk``,
``splitc``) every rank and its right neighbour — so any sub-list is a
deadlock-free run, which :func:`shrink_failure` exploits.
:func:`run_campaign` runs seeded random MPI op lists (:func:`generate_ops`)
under the sanitizer; :func:`repro.faults.soak.run_soak` runs the soak's
fixed ring-op list without it.

After its ops every rank closes (a world barrier with MPI, else a
done-broadcast over AM) and drains: it serves the network until its own
endpoint reports :meth:`SPAM.drained <repro.am.endpoint.SPAM.drained>`
(and its ADI is idle) with no packet arrival for
:data:`_DRAIN_GRACE_US`.  An aborting error becomes a violation and the
checks still run: the ops' own payload, status and delivery checks, the
sanitizer's, the protocol end state (no unacked window, partial assembly
or active bulk op) and the fault ledgers (every injected fault in the
observatory's fault events by trace_id; every lossy one with a
``packet_dropped`` event; past the observatory's cap, only the faults it
had room for).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.am import attach_spam
from repro.bench.harness import run_programs
from repro.check.core import Sanitizer
from repro.faults.injector import install_faults
from repro.faults.payload import periodic_payload
from repro.faults.plan import FaultPlan
from repro.hardware.machine import build_sp_machine
from repro.mpi import attach_mpi
from repro.mpi.comm import Communicator
from repro.mpi.status import ANY_SOURCE
from repro.obs.core import Observatory
from repro.sim import Simulator
from repro.sim.errors import SimulationError
from repro.splitc.gptr import GlobalPtr
from repro.splitc.runtime import attach_splitc

#: how long a rank must stay *locally* quiet (its endpoint drained, no
#: packet arrivals) before it leaves its drain loop.  Must exceed the
#: longest silence the recovery machinery can produce while a peer still
#: needs this rank: keep-alives back off up to ``keepalive_idle * 64`` =
#: 25.6 ms between sends, so anything a peer still wants re-served
#: interrupts a 30 ms window
_DRAIN_GRACE_US = 30_000.0

#: simulated-time bound of one run: a run that recovers finishes far
#: inside it, so reaching it means recovery diverged
_RUN_LIMIT_US = 5e7

#: fault kinds that destroy the packet and must therefore also show up
#: as a ``packet_dropped`` observability event
_LOSSY_KINDS = frozenset({"drop", "corrupt", "rx_overflow"})

#: Split-C put_bulk payload of a ``splitc`` op (small on purpose: the op
#: exercises handler traffic, not bandwidth)
_SPLITC_BYTES = 1024

#: fixed communicator contexts, one per subcommunicator name; kept below
#: the Communicator auto-allocation floor (100) and distinct from
#: comm_world's context 1
_CTX_BASE = 40

#: p2p payload sizes: zero-byte, sub-packet, packet-ish, eager mid-range,
#: the eager/rendez-vous boundary, and two rendez-vous sizes
_P2P_SIZES = (0, 1, 17, 256, 1024, 4000, 8192, 12000, 20000)

_COLL_SIZES = (1, 16, 64, 256)
_COLLECTIVES = ("barrier", "bcast", "reduce", "allreduce", "gather",
                "alltoall", "scan")


# ---------------------------------------------------------------------------
# op lists and payloads
# ---------------------------------------------------------------------------

def _subcomms(nodes: int) -> Dict[str, Tuple[List[int], int]]:
    """name -> (world_ranks, context).  ``rot`` is the world rotated by
    one, so every member's communicator-local rank differs from its
    world rank — the layout that flushed the loopback status bug."""
    combos = {
        "world": list(range(nodes)),
        "rot": [(i + 1) % nodes for i in range(nodes)],
        "even": [r for r in range(nodes) if r % 2 == 0],
        "odd": [r for r in range(nodes) if r % 2 == 1],
    }
    return {name: (ranks, _CTX_BASE + i)
            for i, (name, ranks) in enumerate(sorted(combos.items()))
            if ranks}


def _pattern(i: int, src: int, nbytes: int) -> bytes:
    """Deterministic payload of op ``i`` from sender ``src``:
    byte ``j`` is ``(31 * i + 17 * src + 5 * j + 11) % 251``."""
    return periodic_payload(31 * i + 17 * src + 11, 5, nbytes)


def _ring_pattern(rank: int, nbytes: int) -> bytes:
    """Deterministic payload of a ring op from ``rank`` (``rank + 100``
    for Split-C): byte ``j`` is ``(17 * rank + 3 * j + 7) % 251``."""
    return periodic_payload(17 * rank + 7, 3, nbytes)


def generate_ops(seed: int, nodes: int = 4, nops: int = 24) -> List[dict]:
    """The seeded random op mix (pure function of its arguments).

    Ranks inside an op are communicator-local; ``comm`` names an entry
    of :func:`_subcomms`.
    """
    rng = random.Random(seed)
    subs = _subcomms(nodes)
    names = sorted(subs)
    multi = [n for n in names if len(subs[n][0]) >= 2]
    ops: List[dict] = []
    for i in range(nops):
        tag = 1024 + i * 32
        kind = rng.choices(("p2p", "self", "coll", "waitmix"),
                           weights=(4, 2, 3, 2))[0]
        pair = kind in ("p2p", "waitmix")
        if pair and not multi:
            kind, pair = "coll", False
        name = rng.choice(multi if pair else names)
        size = len(subs[name][0])
        if kind == "p2p":
            src, dst = rng.sample(range(size), 2)
            ops.append({
                "kind": "p2p", "comm": name, "tag": tag,
                "src": (ANY_SOURCE if rng.random() < 0.3 else src),
                "src_actual": src, "dst": dst,
                "nbytes": rng.choice(_P2P_SIZES),
            })
        elif kind == "self":
            ops.append({
                "kind": "self", "comm": name, "tag": tag,
                "rank": rng.randrange(size),
                "nbytes": rng.choice(_COLL_SIZES),
                "order": rng.choice(("send_first", "recv_first")),
            })
        elif kind == "waitmix":
            dst = rng.randrange(size)
            others = [r for r in range(size) if r != dst]
            nsrc = rng.randint(1, min(3, len(others)))
            ops.append({
                "kind": "waitmix", "comm": name, "tag": tag,
                "dst": dst, "srcs": rng.sample(others, nsrc),
                "nbytes": rng.choice((1, 64, 2048)),
                "style": rng.choice(("waitsome", "waitany")),
            })
        else:
            coll = rng.choice(_COLLECTIVES)
            ops.append({
                "kind": "coll", "comm": name, "coll": coll,
                "root": rng.randrange(size),
                "nbytes": rng.choice(_COLL_SIZES),
            })
    return ops


@dataclass
class CampaignResult:
    """Verdict and evidence of one sanitized campaign."""

    seed: int
    nodes: int
    loss: float
    nops: int
    #: sanitizer violations + workload mismatches + aborting exceptions
    violations: List[str]
    #: check counts per checker kind (all must be > 0 on a real run)
    checks: Dict[str, int]
    #: transfer units delivered across every receive window
    delivered_units: int
    #: combined delivery-order digest (deterministic per seed)
    digest: int
    elapsed_us: float
    #: the run raised and stopped early (conservation checks skipped)
    aborted: bool = False
    ops: List[dict] = field(default_factory=list, repr=False)
    #: critical-path rollup over every traced message (stage ->
    #: count/total_us/mean_us/max_us/share), for the check report's
    #: attribution section
    critpath: Dict[str, Dict] = field(default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        state = ("FAIL" if self.violations else "ok")
        counts = " ".join(f"{k}={v}" for k, v in sorted(self.checks.items()))
        return (f"check seed={self.seed} nodes={self.nodes} "
                f"loss={self.loss} ops={self.nops}: {state} "
                f"[{counts}] units={self.delivered_units} "
                f"t={self.elapsed_us:.0f}us")


@dataclass
class ShrinkResult:
    """Outcome of minimizing a failing campaign."""

    seed: int
    #: whether the starting op list failed at all
    reproduced: bool
    #: the minimal failing op list (empty when not reproduced)
    minimal: List[dict]
    original_nops: int
    #: reproduction runs spent shrinking
    runs: int
    #: violations of the minimal run
    violations: List[str] = field(default_factory=list)


# ring-op handlers (one shared HandlerTable per machine keeps ids aligned)

def _h_ping(token, src, i):
    node = token.am.node
    node.soak_pings.setdefault(src, []).append(i)
    yield from token.reply_2(_h_pong, node.id, i)


def _h_pong(token, src, i):
    token.am.node.soak_pongs.setdefault(src, []).append(i)


def _h_done(token, src):
    # done-broadcast marker: ``src`` has finished its ops
    token.am.node.soak_done_from.add(src)


def _abbrev(seq: List[int]) -> str:
    """``seq``, or its first 12 items and its length when longer."""
    if len(seq) <= 12:
        return str(seq)
    return f"[{', '.join(map(str, seq[:12]))}, ...] ({len(seq)} items)"


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


class _Run:
    """One machine running one op list, with or without faults and the
    sanitizer; :meth:`run` leaves every broken promise in
    :attr:`violations`."""

    def __init__(self, nodes: int, ops: List[dict],
                 plan: Optional[FaultPlan], san: Optional[Sanitizer] = None,
                 sample_period_us: Optional[float] = None):
        self.nodes = nodes
        self.ops = ops
        self.violations: List[str] = []
        self.aborted = False
        layers = {self._OPS[op["kind"]][0] for op in ops
                  if op["kind"] in self._OPS}
        self.sim = Simulator()
        self.machine = build_sp_machine(self.sim, nodes)
        self.obs = Observatory().attach(self.machine)
        if sample_period_us is not None:
            # gauge sampler for critical-path reports; its timers run on
            # the unsequenced lane, so event-order digests don't see them
            # and the drain, which never reads the pending count, does not
            # wait for them
            self.obs.start_sampler(period_us=sample_period_us)
        self.ams = attach_spam(self.machine)
        self.mpis = attach_mpi(self.machine) if "mpi" in layers else None
        self.rts = (attach_splitc(self.machine) if "splitc" in layers
                    else None)
        # pre-register the ring-op handlers (SPMD discipline): their ids
        # are fixed before any rank runs instead of at first send
        for h in (_h_ping, _h_pong, _h_done):
            self.ams[0].register(h)
        self.injector = (install_faults(self.machine, plan)
                         if plan is not None else None)
        # last: MPI attachment must exist so allocators get checkers
        self.san = san.attach(self.machine) if san is not None else None
        #: per world rank: subcomm name -> Communicator (members only)
        self.comms: List[Dict[str, Communicator]] = [
            {name: Communicator(list(ranks), w, context=ctx)
             for name, (ranks, ctx) in _subcomms(nodes).items()
             if w in ranks}
            for w in range(nodes)]
        #: per world rank: op index -> the addresses of a ring op's
        #: buffers (src, dst and, for bulk, the read-back), decided up
        #: front so every rank knows its peer's layout
        self.bufs: List[Dict[int, List[int]]] = []
        for node in self.machine.nodes:
            node.soak_pings, node.soak_pongs = {}, {}
            node.soak_done_from = set()
            bufs = {}
            for i, op in enumerate(ops):
                if op["kind"] == "bulk":
                    bufs[i] = [node.memory.alloc(op["nbytes"])
                               for _ in range(3)]
                elif op["kind"] == "splitc":
                    bufs[i] = [node.memory.alloc(_SPLITC_BYTES)
                               for _ in range(2)]
            self.bufs.append(bufs)

    def _complain(self, rank: int, i: int, msg: str) -> None:
        self.violations.append(f"rank {rank} op {i}: {msg}")

    # -- op execution ---------------------------------------------------

    def _run_op(self, i: int, op: dict, w: int):
        """Op ``i``'s generator on world rank ``w``; None when the rank
        takes no part or the op is done at once."""
        if op["kind"] not in self._OPS:
            # generation is exhaustive; a hand-written op list is not
            raise ValueError(f"unknown op kind {op['kind']!r}")
        layer, run = self._OPS[op["kind"]]
        if layer != "mpi":
            return run(self, i, op, w)
        if op["kind"] == "violate":
            return run(self, op, w, self.mpis[w])
        comm = self.comms[w].get(op["comm"])
        if comm is not None:
            return run(self, i, op, w, self.mpis[w], comm, comm.rank)
        return None

    def _op_ping(self, i, op, w):
        """One ping-pong round to the right neighbour; both sides record
        the round, so exactly-once in-order delivery is checked
        literally, after the run."""
        peer = (w + 1) % self.nodes
        am = self.ams[w]
        yield from am.request_2(peer, _h_ping, w, op["round"])
        pongs = self.machine.nodes[w].soak_pongs
        while op["round"] not in pongs.get(peer, ()):
            yield from am._wait_progress()

    def _op_bulk(self, i, op, w):
        """A multi-chunk blocking store to the right neighbour, read back
        with a get."""
        n = op["nbytes"]
        peer = (w + 1) % self.nodes
        (src, _, back), dst = self.bufs[w][i], self.bufs[peer][i][1]
        want = _ring_pattern(w, n)
        self.machine.nodes[w].memory.write(src, want)
        am = self.ams[w]
        yield from am.store(peer, src, dst, n)
        if self.machine.nodes[peer].memory.read(dst, n) != want:
            self._complain(w, i, f"bulk store to {peer} corrupted")
        yield from am.get(peer, dst, back, n)
        if self.machine.nodes[w].memory.read(back, n) != want:
            self._complain(w, i, f"bulk get readback from {peer} corrupted")

    def _op_splitc(self, i, op, w):
        """Split-C: barrier, allreduce, split-phase put_bulk + sync."""
        rt = self.rts[w]
        peer = (w + 1) % self.nodes
        yield from rt.barrier()
        total = yield from rt.allreduce_int(w + 1)
        expect = self.nodes * (self.nodes + 1) // 2
        if total != expect:
            self._complain(w, i, f"allreduce returned {total}, "
                                 f"expected {expect}")
        src, dst = self.bufs[w][i][0], self.bufs[peer][i][1]
        want = _ring_pattern(w + 100, _SPLITC_BYTES)
        self.machine.nodes[w].memory.write(src, want)
        yield from rt.put_bulk(GlobalPtr(peer, dst), src, _SPLITC_BYTES)
        yield from rt.sync()
        if self.machine.nodes[peer].memory.read(dst, _SPLITC_BYTES) != want:
            self._complain(w, i, f"Split-C put_bulk to {peer} corrupted")
        yield from rt.barrier()

    def _op_p2p(self, i, op, w, mpi, comm, local):
        want = _pattern(i, op["src_actual"], op["nbytes"])
        if local == op["src_actual"]:
            yield from mpi.send(want, op["dst"], op["tag"], comm)
        if local == op["dst"]:
            data, st = yield from mpi.recv(op["nbytes"], op["src"],
                                           op["tag"], comm)
            if data != want:
                self._complain(w, i, "p2p payload corrupted")
            expect_src = comm.world_rank_of(op["src_actual"])
            if st.source != expect_src:
                self._complain(w, i, f"status.source={st.source}, expected "
                                     f"world rank {expect_src}")
            if st.tag != op["tag"]:
                self._complain(w, i, f"status.tag={st.tag}, expected "
                                     f"{op['tag']}")

    def _op_self(self, i, op, w, mpi, comm, local):
        if local != op["rank"]:
            return
        want = _pattern(i, w, op["nbytes"])
        if op["order"] == "send_first":
            sreq = yield from mpi.isend(want, local, op["tag"], comm)
            rreq = yield from mpi.irecv(op["nbytes"], local, op["tag"], comm)
        else:
            rreq = yield from mpi.irecv(op["nbytes"], local, op["tag"], comm)
            sreq = yield from mpi.isend(want, local, op["tag"], comm)
        yield from mpi.wait(sreq)
        st = yield from mpi.wait(rreq)
        if rreq.data != want:
            self._complain(w, i, "self-send payload corrupted")
        # the status must carry the world rank (the loopback bug stamped
        # the communicator-local rank, breaking world_ranks.index)
        if st.source != w:
            self._complain(w, i, f"self-recv status.source={st.source}, "
                                 f"expected world rank {w}")
        elif comm.world_ranks.index(st.source) != local:
            self._complain(w, i, "world_ranks.index(status.source) "
                                 "does not resolve to my local rank")

    def _op_waitmix(self, i, op, w, mpi, comm, local):
        if local in op["srcs"]:
            j = op["srcs"].index(local)
            yield from mpi.send(_pattern(i, j, op["nbytes"]), op["dst"],
                                op["tag"] + j, comm)
        if local != op["dst"]:
            return
        empty = yield from mpi.waitsome([])
        if empty != []:
            self._complain(w, i, f"waitsome([]) returned {empty!r}")
        reqs = []
        for j, s in enumerate(op["srcs"]):
            r = yield from mpi.irecv(op["nbytes"], s, op["tag"] + j, comm)
            reqs.append(r)
        remaining = list(reqs)
        while remaining:
            if op["style"] == "waitany":
                k, _st = yield from mpi.waitany(remaining)
                remaining.pop(k)
            else:
                done = yield from mpi.waitsome(remaining)
                remaining = [r for k, r in enumerate(remaining)
                             if k not in done]
        for j, r in enumerate(reqs):
            if r.data != _pattern(i, j, op["nbytes"]):
                self._complain(w, i, f"waitmix payload {j} corrupted")
            expect_src = comm.world_rank_of(op["srcs"][j])
            if r.status.source != expect_src:
                self._complain(w, i, f"waitmix status.source="
                                     f"{r.status.source}, expected "
                                     f"{expect_src}")
            r.free()

    def _op_coll(self, i, op, w, mpi, comm, local):
        size = comm.size
        coll = op["coll"]
        root = op["root"]
        n = op["nbytes"]
        if coll == "barrier":
            yield from mpi.barrier(comm)
            return
        if coll == "bcast":
            want = _pattern(i, comm.world_rank_of(root), n)
            out = yield from mpi.bcast(want if local == root else None,
                                       root, comm)
            if out != want:
                self._complain(w, i, "bcast payload corrupted")
            return
        if coll == "gather":
            data = _pattern(i, w, n)
            out = yield from mpi.gather(data, root, comm)
            if local == root:
                for r in range(size):
                    if out[r] != _pattern(i, comm.world_rank_of(r), n):
                        self._complain(w, i, f"gather slot {r} corrupted")
            return
        if coll == "alltoall":
            chunks = [_pattern(i, 16 * local + d, n) for d in range(size)]
            out = yield from mpi.alltoall(chunks, comm)
            for r in range(size):
                if out[r] != _pattern(i, 16 * r + local, n):
                    self._complain(w, i, f"alltoall slot {r} corrupted")
            return
        # numeric collectives over a small int64 vector (the only ops
        # that compute with arrays, hence the only ones that load numpy)
        import numpy as np

        base = np.arange(max(1, n // 8), dtype=np.int64)
        if coll == "reduce":
            res = yield from mpi.reduce(base + w, "sum", root, comm)
        elif coll == "allreduce":
            res = yield from mpi.allreduce(base + w, "sum", comm)
        elif coll == "scan":
            res = yield from mpi.scan(base + w, "sum", comm)
        else:  # pragma: no cover - generation is exhaustive
            raise ValueError(f"unknown collective {coll!r}")
        # element k sums k + r over the world ranks r of the members that
        # contribute: all of them, or for a scan this rank and those below
        members = comm.world_ranks[: local + 1 if coll == "scan" else size]
        if (coll != "reduce" or local == root) and not np.array_equal(
                res, base * len(members) + sum(members)):
            self._complain(w, i, f"{coll} result wrong")

    def _op_violate(self, op, w, mpi):
        """Deliberate protocol violation (shrinking tests): free a region
        offset that was never allocated."""
        if w != op["rank"]:
            return
        mpi.adi._alloc[op["peer"]].free(op.get("offset", 12321), 64)

    #: op kind -> (the layer it runs on, its method); AM is always
    #: attached, and an MPI op's method also takes the rank's MPI, its
    #: communicator and its local rank
    _OPS = {"ping": ("am", _op_ping), "bulk": ("am", _op_bulk),
            "splitc": ("splitc", _op_splitc), "p2p": ("mpi", _op_p2p),
            "self": ("mpi", _op_self), "waitmix": ("mpi", _op_waitmix),
            "coll": ("mpi", _op_coll), "violate": ("mpi", _op_violate)}

    # -- the per-rank program -------------------------------------------

    def _program(self, node):
        w = node.id
        for i, op in enumerate(self.ops):
            steps = self._run_op(i, op, w)
            if steps is not None:
                yield from steps
        am = self.ams[w]
        if self.mpis is None:
            # done-broadcast over AM: a dropped marker is retransmitted
            # like any other request
            for off in range(1, self.nodes):
                yield from am.request_1((w + off) % self.nodes, _h_done, w)
            done = node.soak_done_from
            done.add(w)
            wait, quiet = am._wait_progress, (
                lambda: len(done) == self.nodes and am.drained())
        else:
            # the world barrier proves every rank has finished its ops;
            # what remains is straggling protocol traffic (acks, batched
            # frees, retransmissions), over once the ADI is idle too
            adi = self.mpis[w].adi
            yield from self.mpis[w].barrier()
            wait, quiet = adi._wait_progress, (
                lambda: am.drained() and not adi._send_states
                and not adi._recv_states)
        # the drain: serve the network until ``quiet()`` has held, with no
        # packet arrival at this rank, for _DRAIN_GRACE_US.  Recovery
        # traffic a peer still needs from this rank (NACK service, re-acks
        # for retransmissions) arrives within wire latency and restarts
        # the window, so outlasting the keep-alive machinery's longest
        # backoff means nobody needs this rank anymore
        rx = node.adapter._c_rx_packets
        quiet_since, last_rx = None, rx.value
        while True:
            if rx.value == last_rx and quiet():
                if quiet_since is None:
                    quiet_since = self.sim.now
                elif self.sim.now - quiet_since >= _DRAIN_GRACE_US:
                    return
            else:
                quiet_since, last_rx = None, rx.value
            yield from wait()

    # -- execution and the verdict --------------------------------------

    def run(self) -> float:
        try:
            run_programs(self.machine, [self._program] * self.nodes,
                         limit_us=_RUN_LIMIT_US)
        except (SimulationError, ValueError, AssertionError) as exc:
            # SimTimeoutError (unbounded recovery, deadlock), window
            # invariant violations (MidChunkAckError &c.) and accounting
            # assertions
            self.aborted = True
            self.violations.append(f"{type(exc).__name__}: {exc}")
        else:
            if self.san is not None:
                # conservation only means something on a drained machine
                self.san.check_quiescent()
        if self.san is not None:
            self.violations.extend(str(v) for v in self.san.violations)
        for w in range(self.nodes):
            self._check_rank(w)
        self.reconcile_faults()
        return self.sim.now

    def _check_rank(self, w: int) -> None:
        """Ping delivery and protocol end state of rank ``w``."""
        node = self.machine.nodes[w]
        rounds = [op["round"] for op in self.ops if op["kind"] == "ping"]
        prev, peer = (w - 1) % self.nodes, (w + 1) % self.nodes
        for what, src, log in (("pings", prev, node.soak_pings),
                               ("pongs", peer, node.soak_pongs)):
            got = log.get(src, [])
            if got != rounds:
                self.violations.append(
                    f"rank {w}: {what} from {src} delivered as "
                    f"{_abbrev(got)}, expected {_abbrev(rounds)} "
                    f"exactly once in order")
        am = self.ams[w]
        for dst, peer_state in am._peers.items():
            for ch, win in enumerate(peer_state.send):
                if win.has_unacked:
                    self.violations.append(
                        f"rank {w}: send window to {dst} ch{ch} "
                        f"still holds {win.in_flight} unacked packets")
            for ch, rwin in enumerate(peer_state.recv):
                if rwin.has_partial_assembly:
                    self.violations.append(
                        f"rank {w}: chunk from {dst} ch{ch} "
                        f"never completed reassembly")
        if am._active_sends:
            self.violations.append(
                f"rank {w}: {len(am._active_sends)} bulk ops "
                f"never completed")

    def reconcile_faults(self) -> None:
        """Every injected fault must be visible in the obs ledger, up to
        the first one the full ledger had no room for."""
        if self.injector is None:
            return
        events = self.obs.fault_events
        room = self.obs.faults_before_full
        seen = {(ev["kind"], ev["trace_id"], ev["t"]) for ev in events}
        dropped = {ev["trace_id"] for ev in events
                   if ev["kind"] == "packet_dropped"}
        for i, f in enumerate(self.injector.injected):
            if f.trace_id <= 0:
                self.violations.append(
                    f"injected {f.kind} on {f.src}->{f.dst} seq {f.seq} "
                    f"at t={f.t:.1f} hit an untraced packet (no trace_id)")
                continue
            if room is not None and i >= room:
                continue
            if (f.kind, f.trace_id, f.t) not in seen:
                self.violations.append(
                    f"injected {f.kind} on trace {f.trace_id} at "
                    f"t={f.t:.1f} missing from obs fault events")
            if f.kind in _LOSSY_KINDS and f.trace_id not in dropped:
                self.violations.append(
                    f"injected {f.kind} on trace {f.trace_id} has no "
                    f"matching packet_dropped event")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_campaign(
    seed: int,
    nodes: int = 4,
    nops: int = 24,
    loss: float = 0.0,
    op_list: Optional[List[dict]] = None,
    only: Optional[List[str]] = None,
) -> CampaignResult:
    """One seeded run under the sanitizer; returns its verdict.

    ``op_list`` overrides generation (shrinking, soak op lists and
    tests); otherwise the ops are :func:`generate_ops(seed, nodes, nops)`.
    ``loss`` runs it under :meth:`FaultPlan.loss(seed, loss)
    <repro.faults.plan.FaultPlan.loss>`.
    """
    ops = op_list if op_list is not None else generate_ops(seed, nodes, nops)
    plan = FaultPlan.loss(seed, loss) if loss > 0.0 else None
    camp = _Run(nodes, ops, plan, san=Sanitizer(collect=True, only=only))
    elapsed = camp.run()
    units, digest = camp.san.delivery_report()
    from repro.obs.critpath import critpath_rollup

    return CampaignResult(
        seed=seed, nodes=nodes, loss=loss, nops=len(ops),
        violations=camp.violations, checks=dict(camp.san.snapshot()),
        delivered_units=units, digest=digest, elapsed_us=elapsed,
        aborted=camp.aborted, ops=ops,
        critpath=critpath_rollup(camp.obs, by_kind=False).get("ALL", {}),
    )


def run_campaigns(seeds, nodes: int = 4, nops: int = 24,
                  loss: float = 0.0) -> List[CampaignResult]:
    """Run one campaign per seed (the ``spam-bench check`` loop)."""
    return [run_campaign(s, nodes=nodes, nops=nops, loss=loss)
            for s in seeds]


def shrink_failure(
    seed: int,
    nodes: int = 4,
    nops: int = 24,
    loss: float = 0.0,
    op_list: Optional[List[dict]] = None,
) -> ShrinkResult:
    """Minimize a failing run to its smallest failing op list.

    Binary-searches the shortest failing prefix (the violating op is the
    prefix's last element), then greedily drops every earlier op that
    the failure does not depend on.  Ops are self-contained, so every
    candidate sub-list is a valid deadlock-free run.  Every candidate
    runs through :func:`run_campaign`, so a soak op list shrinks too.
    """
    ops = op_list if op_list is not None else generate_ops(seed, nodes, nops)
    runs = 0

    def fails(candidate: List[dict]) -> Optional[List[str]]:
        nonlocal runs
        runs += 1
        res = run_campaign(seed, nodes=nodes, loss=loss, op_list=candidate)
        return res.violations if not res.ok else None

    first = fails(ops)
    if first is None:
        return ShrinkResult(seed=seed, reproduced=False, minimal=[],
                            original_nops=len(ops), runs=runs)
    lo, hi = 1, len(ops)  # invariant: ops[:hi] fails
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(ops[:mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    cur = ops[:hi]
    # never drop the prefix's last op (the trigger)
    for i in range(len(cur) - 2, -1, -1):
        candidate = cur[:i] + cur[i + 1:]
        if fails(candidate) is not None:
            cur = candidate
    final = fails(cur) or []
    return ShrinkResult(seed=seed, reproduced=True, minimal=cur,
                        original_nops=len(ops), runs=runs,
                        violations=final)
