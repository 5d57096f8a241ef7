"""Randomized conformance campaigns under the sanitizer.

``run_campaign`` builds a fresh SP machine, attaches AM + MPI-AM, plants
a :class:`~repro.check.core.Sanitizer` over every layer, and drives a
seeded random mix of operations — point-to-point over subcommunicators
(including ANY_SOURCE matches and self-sends), collectives, and
wait-family stress — optionally under fabric loss.  Every op verifies its
own payload and status against a deterministic pattern, so a campaign
cross-checks three ledgers: the workload's expectations, the protocol
state machines, and the sanitizer's redundant bookkeeping.

Ops are *self-contained units* (a p2p op names both its sender and its
receiver; a collective names its whole membership) executed by every
participating rank in global index order, so any sub-list of ops is
itself a deadlock-free campaign — the property :func:`shrink_failure`
exploits to reduce a failing seed to a minimal op list.

After a closing world barrier every rank quiesces through the soak
harness's :func:`~repro.faults.soak.drain` (its endpoint's
:meth:`~repro.am.endpoint.SPAM.drained` plus an idle ADI, no packet
arrival for the same 30 ms grace window), and the run goes through
:func:`~repro.faults.soak.run_capturing`, so an aborting error becomes a
violation exactly as it does in a soak.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.am import attach_spam
from repro.check.core import Sanitizer
from repro.faults.injector import install_faults
from repro.faults.payload import periodic_payload
from repro.faults.plan import FaultPlan
from repro.faults.soak import drain, run_capturing
from repro.hardware.machine import build_sp_machine
from repro.mpi import attach_mpi
from repro.mpi.comm import Communicator
from repro.mpi.status import ANY_SOURCE
from repro.obs.core import Observatory
from repro.sim import Simulator

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
        if kind == "p2p" and multi:
            name = rng.choice(multi)
            size = len(subs[name][0])
            src, dst = rng.sample(range(size), 2)
            ops.append({
                "kind": "p2p", "comm": name, "tag": tag,
                "src": (ANY_SOURCE if rng.random() < 0.3 else src),
                "src_actual": src, "dst": dst,
                "nbytes": rng.choice(_P2P_SIZES),
            })
        elif kind == "self":
            name = rng.choice(names)
            size = len(subs[name][0])
            ops.append({
                "kind": "self", "comm": name, "tag": tag,
                "rank": rng.randrange(size),
                "nbytes": rng.choice(_COLL_SIZES),
                "order": rng.choice(("send_first", "recv_first")),
            })
        elif kind == "waitmix" and multi:
            name = rng.choice(multi)
            size = len(subs[name][0])
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
            name = rng.choice(names)
            size = len(subs[name][0])
            coll = rng.choice(_COLLECTIVES)
            ops.append({
                "kind": "coll", "comm": name, "coll": coll,
                "root": rng.randrange(size),
                "nbytes": rng.choice(_COLL_SIZES),
            })
    return ops


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the campaign machine
# ---------------------------------------------------------------------------


class _CheckCampaign:
    def __init__(self, seed: int, nodes: int, ops: List[dict], loss: float,
                 collect: bool, limit: float,
                 only: Optional[List[str]] = None):
        self.seed = seed
        self.nodes = nodes
        self.ops = ops
        self.limit = limit
        self.violations: List[str] = []
        self.aborted = False
        self.sim = Simulator()
        self.machine = build_sp_machine(self.sim, nodes)
        self.obs = Observatory().attach(self.machine)
        self.ams = attach_spam(self.machine)
        self.mpis = attach_mpi(self.machine)
        if loss > 0.0:
            install_faults(self.machine, FaultPlan.loss(seed, loss))
        # last: MPI attachment must exist so allocators get checkers
        self.san = Sanitizer(collect=collect, only=only).attach(self.machine)
        subs = _subcomms(nodes)
        #: per world rank: subcomm name -> Communicator (members only)
        self.comms: List[Dict[str, Communicator]] = []
        for w in range(nodes):
            mine = {}
            for name, (ranks, ctx) in subs.items():
                if w in ranks:
                    mine[name] = Communicator(list(ranks), w, context=ctx)
            self.comms.append(mine)

    def _complain(self, rank: int, i: int, msg: str) -> None:
        self.violations.append(f"rank {rank} op {i}: {msg}")

    # -- op execution ---------------------------------------------------

    def _run_op(self, i: int, op: dict, w: int):
        kind = op["kind"]
        if kind == "violate":
            self._op_violate(op, w, self.mpis[w])
            return
        comm = self.comms[w].get(op["comm"])
        if comm is None:
            return
        mpi = self.mpis[w]
        local = comm.rank
        if kind == "p2p":
            yield from self._op_p2p(i, op, w, mpi, comm, local)
        elif kind == "self":
            yield from self._op_self(i, op, w, mpi, comm, local)
        elif kind == "waitmix":
            yield from self._op_waitmix(i, op, w, mpi, comm, local)
        elif kind == "coll":
            yield from self._op_coll(i, op, w, mpi, comm, local)
        else:  # pragma: no cover - generation is exhaustive
            raise ValueError(f"unknown op kind {kind!r}")

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

        count = max(1, n // 8)
        arr = np.arange(count, dtype=np.int64) + w
        rank_sum = sum(comm.world_ranks)
        base = np.arange(count, dtype=np.int64)
        if coll == "reduce":
            res = yield from mpi.reduce(arr, "sum", root, comm)
            if local == root and not np.array_equal(
                    res, base * size + rank_sum):
                self._complain(w, i, "reduce result wrong")
        elif coll == "allreduce":
            res = yield from mpi.allreduce(arr, "sum", comm)
            if not np.array_equal(res, base * size + rank_sum):
                self._complain(w, i, "allreduce result wrong")
        elif coll == "scan":
            res = yield from mpi.scan(arr, "sum", comm)
            prefix = sum(comm.world_ranks[: local + 1])
            if not np.array_equal(res, base * (local + 1) + prefix):
                self._complain(w, i, "scan result wrong")
        else:  # pragma: no cover - generation is exhaustive
            raise ValueError(f"unknown collective {coll!r}")

    def _op_violate(self, op, w, mpi):
        """Deliberate protocol violation (shrinking tests): free a region
        offset that was never allocated."""
        if w != op["rank"]:
            return
        mpi.adi._alloc[op["peer"]].free(op.get("offset", 12321), 64)

    # -- the per-rank program -------------------------------------------

    def _program(self, w: int):
        mpi = self.mpis[w]
        node = self.machine.nodes[w]
        for i, op in enumerate(self.ops):
            yield from self._run_op(i, op, w)
        yield from mpi.barrier()
        # Drain.  The world barrier above proves every rank has finished
        # its ops; what remains is straggling protocol traffic (acks,
        # batched frees, retransmissions under loss).  The MPI layer is
        # quiet once its ADI has no send or receive protocol in flight.
        am = self.ams[w]
        adi = mpi.adi
        yield from drain(
            self.sim, node.adapter._c_rx_packets,
            lambda: (am.drained() and not adi._send_states
                     and not adi._recv_states),
            adi._wait_progress)

    # -- execution ------------------------------------------------------

    def run(self) -> float:
        procs = [self.sim.spawn(self._program(w), name=f"check{w}")
                 for w in range(self.nodes)]
        abort = run_capturing(self.sim, procs, self.limit)
        if abort is not None:
            self.aborted = True
            self.violations.append(abort)
        else:
            # conservation only means something on a drained machine
            self.san.check_quiescent()
        self.violations.extend(str(v) for v in self.san.violations)
        self.check_counts = dict(self.san.snapshot())
        self.delivered_units, self.digest = self.san.delivery_report()
        return self.sim.now


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_campaign(
    seed: int,
    nodes: int = 4,
    nops: int = 24,
    loss: float = 0.0,
    op_list: Optional[List[dict]] = None,
    collect: bool = True,
    limit: float = 5e7,
    only: Optional[List[str]] = None,
) -> CampaignResult:
    """One seeded campaign under the sanitizer; returns its verdict.

    ``op_list`` overrides generation (shrinking and tests); otherwise
    the ops are :func:`generate_ops(seed, nodes, nops)`.
    """
    ops = op_list if op_list is not None else generate_ops(seed, nodes, nops)
    camp = _CheckCampaign(seed, nodes, ops, loss, collect, limit, only)
    elapsed = camp.run()
    from repro.obs.critpath import critpath_rollup

    return CampaignResult(
        seed=seed, nodes=nodes, loss=loss, nops=len(ops),
        violations=camp.violations, checks=camp.check_counts,
        delivered_units=camp.delivered_units, digest=camp.digest,
        elapsed_us=elapsed,
        aborted=camp.aborted, ops=ops,
        critpath=critpath_rollup(camp.obs, by_kind=False).get("ALL", {}),
    )


def run_campaigns(seeds, nodes: int = 4, nops: int = 24,
                  loss: float = 0.0, **kw) -> List[CampaignResult]:
    """Run one campaign per seed (the ``spam-bench check`` loop)."""
    return [run_campaign(s, nodes=nodes, nops=nops, loss=loss, **kw)
            for s in seeds]


def shrink_failure(
    seed: int,
    nodes: int = 4,
    nops: int = 24,
    loss: float = 0.0,
    op_list: Optional[List[dict]] = None,
    limit: float = 5e7,
) -> ShrinkResult:
    """Minimize a failing campaign to its smallest failing op list.

    Binary-searches the shortest failing prefix (the violating op is the
    prefix's last element), then greedily drops every earlier op that
    the failure does not depend on.  Ops are self-contained, so every
    candidate sub-list is a valid deadlock-free campaign.
    """
    ops = op_list if op_list is not None else generate_ops(seed, nodes, nops)
    runs = 0

    def fails(candidate: List[dict]) -> Optional[List[str]]:
        nonlocal runs
        runs += 1
        res = run_campaign(seed, nodes=nodes, loss=loss,
                           op_list=candidate, collect=True, limit=limit)
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
    i = len(cur) - 2  # never drop the prefix's last op (the trigger)
    while i >= 0:
        candidate = cur[:i] + cur[i + 1:]
        if fails(candidate) is not None:
            cur = candidate
        i -= 1
    final = fails(cur) or []
    return ShrinkResult(seed=seed, reproduced=True, minimal=cur,
                        original_nops=len(ops), runs=runs,
                        violations=final)
