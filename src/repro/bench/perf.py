"""Simulator-core performance suite (``spam-bench perf``).

The paper's creed — per-message *software* overhead is the limit (§3) —
applies to the simulator itself: every reproduced experiment is bounded
by how many events per second the core can retire.  This suite measures
that number over the protocol workloads that dominate real runs:

* ``pingpong`` — 100k one-word AM round trips (the §2.3 latency path),
* ``bulk`` — multi-chunk ``store``/``get`` rounds (the §2.1 bulk path),
* ``alltoall`` — 16 ranks of converging ``store_async`` traffic (the
  §4.4 congestion case),
* ``soak`` — the chaos campaign at 1% loss (timers, retransmissions,
  NACK recovery — the go-back-N machinery of §2.2).

Each sized workload runs under both schedulers (``wheel`` and ``heap``)
and the suite additionally drives reduced copies of the workloads one
:meth:`~repro.sim.engine.Simulator.step` at a time to fold every executed
event's ``(time, seq, callback)`` into a digest: the two schedulers must
produce **byte-identical** digests and final simulated clocks, or the
wheel is reordering events and the run fails.

The wheel workloads are additionally timed with idle fast-forward
disabled (``wheel_noff``) and the on/off ratio is reported per workload;
a second differential pass records full-speed event-order digests (via
the engine's check hooks, so no ``step()`` slowdown) with fast-forward
on and off on **all four** workloads — digests, final clocks, and
event/stale counts must match exactly, or the fast path is changing
execution order rather than just skipping idle queue work.

Events/sec is reported *adjusted*: ``(events_executed +
stale_events_skipped) / wall``.  The pre-PR engine executed cancelled
timer wakeups as counted no-op events; the current engine discards them
on pop without executing, so the raw counter alone would understate the
work retired per second.

Regression gating (``--check``) is machine-independent: it compares the
current wheel/heap events-per-second *ratio* per workload against the
ratio stored in a committed ``BENCH_simperf.json``, so CI hardware speed
cancels out and only scheduler regressions trip it.
"""

from __future__ import annotations

import hashlib
import struct
import time
from typing import Callable, Dict, List, Optional

from repro.sim import Simulator

#: committed pre-PR baseline (single-heap engine, counted-stale-wakeup
#: semantics, reference dev box): adjusted events/sec on the full-size
#: workloads.  Denominators for the headline speedup rows.
PRE_PR_BASELINE: Dict[str, float] = {
    "pingpong": 135761.2,
    "bulk": 128960.3,
    "alltoall": 144057.1,
    "soak": 86005.6,
}

#: full-size workloads (the committed-report configuration)
FULL_SIZES: Dict[str, tuple] = {
    "pingpong": (100_000,),
    "bulk": (262_144, 4),
    "alltoall": (16, 16_384, 2),
    "soak": (60,),
}

#: reduced sizes for CI smoke runs (``--quick``)
QUICK_SIZES: Dict[str, tuple] = {
    "pingpong": (1_000,),
    "bulk": (65_536, 1),
    "alltoall": (8, 4_096, 1),
    "soak": (12,),
}

#: sizes for the step()-driven digest runs (deliberately small: the
#: one-event-at-a-time loop trades speed for event-order visibility)
DIGEST_SIZES: Dict[str, tuple] = {
    "pingpong": (200,),
    "bulk": (32_768, 1),
    "alltoall": (4, 2_048, 1),
}

#: sizes for the fast-forward on/off digest comparison.  These runs ride
#: the engine's check hooks through the full-speed drain loops, so they
#: afford larger sizes than the ``step()``-driven ``DIGEST_SIZES`` — and
#: they cover soak, which ``step()`` cannot drive (``run_soak`` owns its
#: simulator).
FF_DIGEST_SIZES: Dict[str, tuple] = {
    "pingpong": (2_000,),
    "bulk": (65_536, 2),
    "alltoall": (8, 4_096, 1),
    "soak": (20,),
}

#: workloads that run under both schedulers (soak builds its own
#: simulator inside ``run_soak``, so it is measured on the default only)
DUAL_SCHEDULER = ("pingpong", "bulk", "alltoall")

#: every workload, for the fast-forward comparisons (which only need the
#: wheel scheduler and therefore include soak)
ALL_WORKLOADS = ("pingpong", "bulk", "alltoall", "soak")


# ---------------------------------------------------------------------------
# workload builders: populate ``sim`` and return the processes to wait on
# ---------------------------------------------------------------------------

def _build_pingpong(sim: Simulator, iterations: int,
                    xfer_mode: str = "eager") -> list:
    from repro.am import attach_am
    from repro.hardware.machine import build_machine

    machine = build_machine(sim, 2, "sp-thin")
    attach_am(machine, xfer_mode=xfer_mode)
    am0 = machine.node(0).am
    am1 = machine.node(1).am
    got = [0]      # node 0 state: replies landed (bumped by node-0 events)
    served = [0]   # node 1 state: requests served (bumped by node-1 events)

    def reply_handler(token, x):
        got[0] += 1

    def request_handler(token, x):
        served[0] += 1
        yield from token.reply_1(reply_handler, x)

    def pinger():
        for i in range(iterations):
            before = got[0]
            yield from am0.request_1(1, request_handler, i & 0xFFFF)
            while got[0] == before:
                yield from am0._wait_progress()

    def ponger():
        while served[0] < iterations:
            yield from am1._wait_progress()

    p = sim.spawn(pinger(), name="perf-ping")
    sim.spawn(ponger(), name="perf-pong")
    return [p]


def _build_bulk(sim: Simulator, nbytes: int, rounds: int,
                xfer_mode: str = "eager") -> list:
    from repro.am import attach_am
    from repro.hardware.machine import build_machine

    machine = build_machine(sim, 2, "sp-thin")
    attach_am(machine, xfer_mode=xfer_mode)
    am0 = machine.node(0).am
    am1 = machine.node(1).am
    src = machine.node(0).memory.alloc(nbytes)
    dst = machine.node(1).memory.alloc(nbytes)
    back = machine.node(0).memory.alloc(nbytes)
    machine.node(0).memory.write(src, bytes(i % 251 for i in range(nbytes)))
    done = [False]  # set on node 1 by the done-marker handler below

    def h_bulk_done(token, x):
        done[0] = True

    def mover():
        for _ in range(rounds):
            yield from am0.store(1, src, dst, nbytes)
            yield from am0.get(1, dst, back, nbytes)
        # tell the server it can stop
        yield from am0.request_1(1, h_bulk_done, 0)

    def server():
        while not done[0]:
            yield from am1._wait_progress()

    p = sim.spawn(mover(), name="perf-bulk")
    sim.spawn(server(), name="perf-bulk-server")
    return [p]


def _build_alltoall(sim: Simulator, nodes: int, nbytes: int,
                    rounds: int, xfer_mode: str = "eager") -> list:
    from repro.am import attach_am
    from repro.hardware.machine import build_machine

    machine = build_machine(sim, nodes, "sp-thin")
    attach_am(machine, xfer_mode=xfer_mode)
    ams = [machine.node(i).am for i in range(nodes)]
    srcs = [machine.node(i).memory.alloc(nbytes) for i in range(nodes)]
    dsts = [[machine.node(i).memory.alloc(nbytes) for _ in range(nodes)]
            for i in range(nodes)]
    #: per-node set of peers that announced completion
    done_from = [set() for _ in range(nodes)]

    def h_a2a_done(token, src):
        done_from[token.am.node.id].add(src)

    def rank(r):
        am = ams[r]
        for _ in range(rounds):
            ops = []
            for off in range(1, nodes):
                peer = (r + off) % nodes
                op = yield from am.store_async(
                    peer, srcs[r], dsts[peer][r], nbytes)
                ops.append(op)
            for op in ops:
                yield from am.wait_op(op)
        # done broadcast: my stores are acked (wait_op above), so the
        # marker can only arrive after them; serve the network until
        # every peer's marker has landed here
        for off in range(1, nodes):
            yield from am.request_1((r + off) % nodes, h_a2a_done, r)
        while len(done_from[r]) < nodes - 1:
            yield from am._wait_progress()

    return [sim.spawn(rank(r), name=f"a2a{r}") for r in range(nodes)]


_BUILDERS: Dict[str, Callable] = {
    "pingpong": _build_pingpong,
    "bulk": _build_bulk,
    "alltoall": _build_alltoall,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _adjusted_eps(sim: Simulator, wall: float) -> float:
    # stale (cancelled-then-skipped) entries are queue work the engine
    # retired; the pre-PR engine executed them as counted no-op events
    return (sim.events_executed + sim.stale_events_skipped) / wall


def _timed_run(name: str, scheduler: str, sizes: tuple,
               repeat: int, idle_fast_forward: bool = True,
               xfer_mode: str = "eager") -> Dict:
    """Best-of-``repeat`` wall time for one workload on one scheduler."""
    build = _BUILDERS[name]
    best: Optional[Dict] = None
    for _ in range(repeat):
        sim = Simulator(scheduler=scheduler,
                        idle_fast_forward=idle_fast_forward)
        procs = build(sim, *sizes, xfer_mode=xfer_mode)
        t0 = time.perf_counter()
        sim.run_until_processes_done(procs, limit=1e12)
        wall = time.perf_counter() - t0
        rec = {
            "scheduler": scheduler,
            "sizes": list(sizes),
            "events": sim.events_executed,
            "stale_skipped": sim.stale_events_skipped,
            "wall_s": round(wall, 4),
            "eps": round(sim.events_executed / wall, 1),
            "adj_eps": round(_adjusted_eps(sim, wall), 1),
            "sim_us": round(sim.now, 3),
        }
        if best is None or rec["wall_s"] < best["wall_s"]:
            best = rec
    return best


def _timed_soak(pingpong: int, repeat: int,
                idle_fast_forward: bool = True,
                xfer_mode: str = "eager") -> Dict:
    from repro.faults import run_soak

    best: Optional[Dict] = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = run_soak(seed=11, loss=0.01, nodes=3, pingpong=pingpong,
                       compare_clean=False,
                       idle_fast_forward=idle_fast_forward,
                       xfer_mode=xfer_mode)
        wall = time.perf_counter() - t0
        if res.violations:
            raise RuntimeError(
                f"soak workload violated reliability invariants: "
                f"{res.violations}")
        sim = res.obs.machine.sim
        rec = {
            "scheduler": sim.scheduler,
            "sizes": [pingpong],
            "events": sim.events_executed,
            "stale_skipped": sim.stale_events_skipped,
            "wall_s": round(wall, 4),
            "eps": round(sim.events_executed / wall, 1),
            "adj_eps": round(_adjusted_eps(sim, wall), 1),
            "sim_us": round(res.elapsed_us, 3),
        }
        if best is None or rec["wall_s"] < best["wall_s"]:
            best = rec
    return best


# ---------------------------------------------------------------------------
# differential determinism: wheel and heap must agree byte-for-byte
# ---------------------------------------------------------------------------

_DIGEST_PACK = struct.Struct("<dq").pack


def _digest_run(scheduler: str, name: str, sizes: tuple,
                xfer_mode: str = "eager"):
    """Drive a workload one event at a time, hashing the execution order.

    Returns ``(final_sim_time, hex_digest)`` where the digest covers every
    executed event's ``(when, seq, callback qualname)``.  Two schedulers
    agree on this digest iff they executed the same callbacks at the same
    times in the same order.  Entries with negative seqs (the unsequenced
    observer lane: metrics-sampler ticks) are excluded — they are
    digest-neutral by contract.
    """
    sim = Simulator(scheduler=scheduler)
    procs = _BUILDERS[name](sim, *sizes, xfer_mode=xfer_mode)
    h = hashlib.blake2b(digest_size=16)
    pack = _DIGEST_PACK
    while not all(p.finished for p in procs):
        if not sim.step():
            break
        when, seq, fn = sim.last_event
        if seq < 0:
            continue
        h.update(pack(when, seq))
        h.update(getattr(fn, "__qualname__", type(fn).__name__).encode())
    return sim.now, h.hexdigest()


def run_determinism(sizes: Optional[Dict[str, tuple]] = None,
                    xfer_mode: str = "eager") -> Dict:
    """Differential check: wheel == heap per workload.

    Returns ``{workload: {wheel_digest, heap_digest, wheel_sim_us,
    heap_sim_us, identical}}`` plus an ``"identical"`` rollup key.
    """
    sizes = sizes or DIGEST_SIZES
    out: Dict = {}
    all_ok = True
    for name in DUAL_SCHEDULER:
        if name not in sizes:
            continue
        w_now, w_dig = _digest_run("wheel", name, sizes[name], xfer_mode)
        h_now, h_dig = _digest_run("heap", name, sizes[name], xfer_mode)
        ok = (w_dig == h_dig) and (w_now == h_now)
        all_ok = all_ok and ok
        out[name] = {
            "wheel_digest": w_dig,
            "heap_digest": h_dig,
            "wheel_sim_us": w_now,
            "heap_sim_us": h_now,
            "identical": ok,
        }
    out["identical"] = all_ok
    return out


# ---------------------------------------------------------------------------
# differential determinism: idle fast-forward on/off must agree too
# ---------------------------------------------------------------------------

class _FFDigestRecorder:
    """Event-order digest collected through the engine's check hooks.

    Unlike :func:`_digest_run` this never forces the one-event-at-a-time
    ``step()`` path: the engine's fast drain loops call ``on_execute`` /
    ``on_stale`` on whatever object sits on ``sim.check``, so the digest
    covers exactly what the full-speed path retired — which is the path
    idle fast-forward changes and therefore the one that must be proven
    order-identical with fast-forward off.
    """

    __slots__ = ("_update", "_hexdigest", "stale", "cancels")

    def __init__(self):
        h = hashlib.blake2b(digest_size=16)
        self._update = h.update
        self._hexdigest = h.hexdigest
        self.stale = 0
        self.cancels = 0

    def on_execute(self, entry) -> None:
        if entry[1] < 0:
            # the unsequenced observer lane (metrics-sampler ticks) is
            # digest-neutral by contract: its presence must not change
            # any ordinary event's (when, seq) identity, so it is not
            # part of the order being proven either
            return
        fn = entry[2]
        self._update(_DIGEST_PACK(entry[0], entry[1]))
        self._update(getattr(fn, "__qualname__", type(fn).__name__).encode())

    def on_stale(self, entry) -> None:
        self.stale += 1

    def on_cancel(self, entry) -> None:
        self.cancels += 1

    def hexdigest(self) -> str:
        return self._hexdigest()


def _ff_recorded_run(name: str, sizes: tuple, idle_fast_forward: bool,
                     xfer_mode: str = "eager"):
    """One wheel run with a digest recorder attached; returns the record."""
    rec = _FFDigestRecorder()
    if name == "soak":
        from repro.faults import run_soak

        res = run_soak(seed=11, loss=0.01, nodes=3, pingpong=sizes[0],
                       compare_clean=False, sim_check=rec,
                       idle_fast_forward=idle_fast_forward,
                       xfer_mode=xfer_mode)
        if res.violations:
            raise RuntimeError(
                f"soak digest run violated reliability invariants: "
                f"{res.violations}")
        sim = res.obs.machine.sim
    else:
        sim = Simulator(scheduler="wheel",
                        idle_fast_forward=idle_fast_forward)
        procs = _BUILDERS[name](sim, *sizes, xfer_mode=xfer_mode)
        sim.check = rec
        sim.run_until_processes_done(procs, limit=1e12)
    return {
        "digest": rec.hexdigest(),
        "sim_us": sim.now,
        "events": sim.events_executed,
        "stale_skipped": sim.stale_events_skipped,
    }


def run_ff_determinism(sizes: Optional[Dict[str, tuple]] = None,
                       xfer_mode: str = "eager") -> Dict:
    """Fast-forward on vs off over all four workloads.

    ``identical`` per workload requires byte-identical digests,
    bit-identical final simulated clocks, and equal executed/stale
    counts; anything less means the fast-forward path altered execution
    rather than just skipping idle queue scans.
    """
    sizes = sizes or FF_DIGEST_SIZES
    out: Dict = {}
    all_ok = True
    for name in ALL_WORKLOADS:
        if name not in sizes:
            continue
        on = _ff_recorded_run(name, sizes[name], True, xfer_mode)
        off = _ff_recorded_run(name, sizes[name], False, xfer_mode)
        ok = (on["digest"] == off["digest"]
              and on["sim_us"] == off["sim_us"]
              and on["events"] == off["events"]
              and on["stale_skipped"] == off["stale_skipped"])
        all_ok = all_ok and ok
        out[name] = {
            "ff_on_digest": on["digest"],
            "ff_off_digest": off["digest"],
            "ff_on_sim_us": on["sim_us"],
            "ff_off_sim_us": off["sim_us"],
            "ff_on_events": on["events"],
            "ff_off_events": off["events"],
            "identical": ok,
        }
    out["identical"] = all_ok
    return out


# ---------------------------------------------------------------------------
# critical-path attribution (embedded in the perf report)
# ---------------------------------------------------------------------------

def _attribution_section(iterations: int) -> Dict:
    """A small *observed* AM ping-pong whose critical-path rollup the
    perf report embeds.  Runs on its own simulator so the timed
    workloads above stay unobserved — their walls measure the engine,
    not the tracing."""
    from repro.bench.pingpong import am_roundtrip_observed
    from repro.obs.critpath import (
        attribution_coverage,
        bottleneck_verdict,
        critpath_rollup,
    )

    mean, obs = am_roundtrip_observed(1, iterations)
    rollup = critpath_rollup(obs)
    return {
        "iterations": iterations,
        "mean_rtt_us": mean,
        "coverage": attribution_coverage(obs, mean),
        "rollup_all": rollup.get("ALL", {}),
        "verdict": bottleneck_verdict(rollup),
    }


# ---------------------------------------------------------------------------
# suite driver + regression gate
# ---------------------------------------------------------------------------

def run_perf(
    quick: bool = False,
    repeat: Optional[int] = None,
    sizes: Optional[Dict[str, tuple]] = None,
    digest_sizes: Optional[Dict[str, tuple]] = None,
    ff_digest_sizes: Optional[Dict[str, tuple]] = None,
    xfer_mode: str = "eager",
) -> Dict:
    """Run the whole suite; returns the report ``extra`` payload.

    ``sizes``/``digest_sizes``/``ff_digest_sizes`` override the built-in
    workload sizes (tests use tiny ones).  ``repeat`` defaults to 3 in
    quick mode — best-of-N damps scheduler-ratio noise on short runs —
    and 1 on the full sizes, where runs are long enough to be stable.
    The soak workload always gets at least best-of-5: its full-size wall
    is ~45 ms, short enough that single draws scatter by double-digit
    percentages on a noisy box.  ``xfer_mode`` selects the AM
    large-message strategy throughout (the determinism digests must be
    byte-identical under both ``eager`` and ``rendezvous``).
    """
    sizes = sizes or (QUICK_SIZES if quick else FULL_SIZES)
    if repeat is None:
        repeat = 3 if quick else 1
    workloads: Dict[str, Dict] = {}
    # soak first: at ~40 ms its wall is the suite's most noise-sensitive
    # measurement, so take its draws at the start of the run instead of
    # a minute of pingpong later, when the box's background load may
    # have drifted away from whatever the caller probed
    soak_repeat = max(repeat, 5)
    soak: Dict = {
        "wheel": _timed_soak(sizes["soak"][0], soak_repeat,
                             xfer_mode=xfer_mode),
        "wheel_noff": _timed_soak(sizes["soak"][0], soak_repeat,
                                  idle_fast_forward=False,
                                  xfer_mode=xfer_mode),
    }
    soak["ratio_ff_on_over_off"] = round(
        soak["wheel"]["adj_eps"] / soak["wheel_noff"]["adj_eps"], 4)
    workloads["soak"] = soak
    for name in DUAL_SCHEDULER:
        per: Dict = {}
        for scheduler in ("wheel", "heap"):
            per[scheduler] = _timed_run(name, scheduler, sizes[name], repeat,
                                        xfer_mode=xfer_mode)
        per["wheel_noff"] = _timed_run(name, "wheel", sizes[name], repeat,
                                       idle_fast_forward=False,
                                       xfer_mode=xfer_mode)
        per["ratio_wheel_over_heap"] = round(
            per["wheel"]["adj_eps"] / per["heap"]["adj_eps"], 4)
        per["ratio_ff_on_over_off"] = round(
            per["wheel"]["adj_eps"] / per["wheel_noff"]["adj_eps"], 4)
        workloads[name] = per
    return {
        "quick": quick,
        "repeat": repeat,
        "xfer_mode": xfer_mode,
        "workloads": workloads,
        "determinism": run_determinism(digest_sizes, xfer_mode),
        "determinism_ff": run_ff_determinism(ff_digest_sizes, xfer_mode),
        "attribution": _attribution_section(50 if quick else 200),
        "baseline_pre_pr": dict(PRE_PR_BASELINE),
    }


def report_entries(data: Dict) -> List[tuple]:
    """``(name, paper, measured)`` rows for :func:`make_report`."""
    entries = []
    for name, per in data["workloads"].items():
        w = per["wheel"]
        entries.append((f"{name} events/sec (adjusted)", None, w["adj_eps"]))
        if not data["quick"]:
            # speedups only mean something on the full-size workloads the
            # baseline was measured with
            entries.append((f"{name} speedup vs pre-PR (x)", None,
                            w["adj_eps"] / PRE_PR_BASELINE[name]))
        if "ratio_wheel_over_heap" in per:
            entries.append((f"{name} wheel/heap eps ratio", None,
                            per["ratio_wheel_over_heap"]))
        if "ratio_ff_on_over_off" in per:
            entries.append((f"{name} idle-ff on/off eps ratio", None,
                            per["ratio_ff_on_over_off"]))
    att = data.get("attribution")
    if att is not None:
        entries.append(("pingpong attribution coverage", 1.0,
                        att["coverage"]["coverage"]))
    return entries


def check_regression(current: Dict, committed: Dict,
                     tolerance: float = 0.2) -> List[str]:
    """Machine-independent regression gate.

    Compares the wheel/heap adjusted-eps ratio per workload against the
    committed report's ratio; a drop beyond ``tolerance`` (default 20%)
    is a regression.  Absolute events/sec never enters the comparison,
    so the gate is insensitive to CI hardware speed.

    The idle-fast-forward on/off ratio is gated the same way, but with a
    floor that concedes half the committed gain (``1 + (ref - 1)/2``)
    and only where the committed report shows fast-forward actually
    mattering (ref >= 1.1): a silently-disabled fast path lands at ~1.0
    and trips the gate on exactly the workloads it was built for, while
    workloads that never idle (ratio ~1.0) can't flake the gate on
    timing noise.
    """
    problems: List[str] = []
    ref_workloads = committed.get("workloads", {})
    for name in DUAL_SCHEDULER:
        cur = current["workloads"].get(name, {}).get("ratio_wheel_over_heap")
        ref = ref_workloads.get(name, {}).get("ratio_wheel_over_heap")
        if cur is None or ref is None:
            problems.append(f"{name}: missing wheel/heap ratio "
                            f"(current={cur}, committed={ref})")
            continue
        floor = (1.0 - tolerance) * ref
        if cur < floor:
            problems.append(
                f"{name}: wheel/heap eps ratio {cur:.3f} fell below "
                f"{floor:.3f} ({(1.0 - tolerance) * 100:.0f}% of the "
                f"committed {ref:.3f}) — wheel scheduler regression")
    for name in ALL_WORKLOADS:
        ref = ref_workloads.get(name, {}).get("ratio_ff_on_over_off")
        if ref is None or ref < 1.1:
            # pre-fast-forward committed report, or a workload where
            # fast-forward never bought anything to lose
            continue
        cur = current["workloads"].get(name, {}).get("ratio_ff_on_over_off")
        floor = 1.0 + (ref - 1.0) * 0.5
        if cur is None:
            problems.append(f"{name}: missing idle-ff on/off ratio "
                            f"(committed={ref})")
        elif cur < floor:
            problems.append(
                f"{name}: idle-ff on/off eps ratio {cur:.3f} fell below "
                f"{floor:.3f} (half the committed gain of {ref:.3f}) — "
                f"idle fast-forward regression")
    if not current["determinism"]["identical"]:
        problems.append(
            "wheel/heap event-order digests differ")
    if not current.get("determinism_ff", {}).get("identical", True):
        problems.append(
            "idle fast-forward on/off event-order digests differ")
    return problems
