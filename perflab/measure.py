"""Execute one workload once, in this process, and reduce it to metrics.

:func:`run_once` is one repeat: set-up, the timed region, output checks.
:func:`trace_pass` is the traced pass of one workload: untraced repeats
for the noise floor, one run under ``cProfile``, one instrumented run
(digest, queue depth, sim spans) and the rung ladders.  Both return plain
dicts; :mod:`perflab.worker` prints them as JSON.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from perflab import layers
from perflab.calibrate import Speed
from perflab.metrics import BY_NAME
from perflab.probe import Probe
from perflab.stats import iqr_share, undisturbed
from perflab.workloads import WORKLOADS, Outcome

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


def paper_dev_pct(workload: str, values: Dict[str, float]) -> float:
    """Max relative distance (in %) of the workload's gated pins from the
    paper; 0.0 for a workload that pins nothing."""
    with open(PINS_PATH) as fh:
        pins = json.load(fh)["pins"]
    worst = 0.0
    for pin in pins:
        if pin["workload"] == workload and pin["gate"]:
            measured = values[pin["name"]]
            worst = max(worst,
                        abs(measured - pin["paper"]) / pin["paper"] * 100.0)
    return worst


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------

@dataclass
class PhaseTotal:
    """One phase name over the repeat's slices: counts summed, host time
    as slices x the fastest slice (every slice is the same work)."""

    ops: int = 0
    sim_us: float = 0.0
    events: int = 0
    stale: int = 0
    slice_walls_s: List[float] = field(default_factory=list)

    @property
    def adj_events(self) -> int:
        return self.events + self.stale

    @property
    def wall_s(self) -> float:
        return len(self.slice_walls_s) * min(self.slice_walls_s)


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def derive(totals: Dict[str, PhaseTotal], outcomes: List[Outcome],
           probe: Probe) -> Dict[str, float]:
    """Layer metrics computable from any run: counts from the ``.stats``
    registries and the engine, simulated quantities, and host time per
    unit of work.  A metric whose inputs the workload lacks is absent."""
    m: Dict[str, Optional[float]] = {}
    # phases whose simulator we can read (run_campaigns hides its own)
    seen = [t for t in totals.values() if t.events]
    seen_ops = sum(t.ops for t in seen)
    seen_wall = sum(t.wall_s for t in seen)
    m["sim.events_per_op"] = _ratio(sum(t.events for t in seen), seen_ops)
    m["sim.stale_per_op"] = _ratio(sum(t.stale for t in seen), seen_ops)
    m["sim.adj_events_per_s"] = _ratio(
        sum(t.adj_events for t in seen), seen_wall)

    c: Dict[str, float] = {}   # .stats counters
    sums: Dict[str, float] = {}
    useful = 0
    for o in outcomes:
        useful += o.useful_bytes
        for into, src in ((c, o.counters), (sums, o.sums)):
            for key, value in src.items():
                into[key] = into.get(key, 0) + value
        for key, value in o.values.items():
            m.setdefault(key, value)  # the same in every slice
    sent = c.get("tx_packets", 0)
    routed = c.get("packets_routed", 0)
    if routed:
        m["hardware.packets_per_op"] = _ratio(routed, seen_ops)
        m["hardware.payload_byte_share"] = _ratio(useful, c.get("tx_bytes", 0))
        m["hardware.dest_link_queued_share"] = (
            c.get("dest_link_queued", 0) / routed)
        m["hardware.rx_overflow_drops"] = c.get("rx_dropped_overflow", 0)
        retx = c.get("retransmissions", 0)
        nacks = sum(c.get(k, 0) for k in (
            "nacks_sent", "stall_nacks_sent", "keepalive_nacks_sent",
            "rdzv_stall_nacks_sent"))
        m["am.retransmissions_per_kpkt"] = 1e3 * retx / sent
        m["am.nacks_per_kpkt"] = 1e3 * nacks / sent
        m["am.explicit_acks_per_kpkt"] = (
            1e3 * c.get("explicit_acks_sent", 0) / sent)
        m["am.first_try_share"] = 1.0 - retx / sent
        m["am.chunk_host_us"] = _ratio(1e6 * seen_wall, c.get("chunks_sent", 0))
    mpi_sends = c.get("eager_sends", 0) + c.get("rendezvous_sends", 0)
    if mpi_sends:
        m["mpi.eager_share"] = c.get("eager_sends", 0) / mpi_sends
        m["mpi.unexpected_share"] = (
            c.get("eager_unexpected", 0) + c.get("rts_unexpected", 0)
        ) / mpi_sends

    # the first build of the process only: later ones (next slices, next
    # in-process repeats) reuse the arenas a freed machine left behind and
    # read 3-4x faster (ring-256: 147, 131, then 37 ms for 256 nodes) —
    # a cost no user's run ever sees
    first = next((s for s in probe.host_spans
                  if s["name"] == "build_sp_machine"), None)
    if first is not None:
        m["hardware.build_ms_per_node"] = (
            1e3 * (first["end_s"] - first["start_s"]) / first["nodes"])

    for phase, metric in (("shallow", "sim.shallow_ns_per_event"),
                          ("deep", "sim.deep_ns_per_event")):
        if phase in totals:
            t = totals[phase]
            m[metric] = 1e9 * t.wall_s / t.adj_events
    for phase, metric, scale in (("timers", "sim.timer_cancel_ns", 1e9),
                                 ("pingpong", "am.rtt_host_us", 1e6),
                                 ("mpi-ring", "mpi.hop_host_us", 1e6)):
        if phase in totals:
            m[metric] = scale * totals[phase].wall_s / totals[phase].ops
    if "soak" in totals:
        t = totals["soak"]
        m["faults.soak_wall_s"] = t.wall_s
        m["faults.lossy_over_clean_sim_x"] = (
            sums["faults.lossy_us"] / sums["faults.clean_us"])
        m["faults.injected_per_kpkt"] = 1e3 * sums["faults.injected"] / routed
        m["obs.spans_per_op"] = sums["obs.spans"] / t.ops
    if "campaigns" in totals:
        t = totals["campaigns"]
        m["check.campaign_wall_s"] = t.wall_s
        m["check.checks_per_op"] = sums["check.checks"] / t.ops
    return {k: v for k, v in m.items() if v is not None}


def run_once(name: str, seed: int, size: str, *, profile: bool = False,
             instrument: bool = False, t_ready: Optional[float] = None,
             build: Optional[Callable] = None,
             before_finish: Optional[Callable] = None) -> Dict:
    """One repeat of workload ``name`` in this process: every slice of its
    fixed work, each set up, timed and checked in turn.  Timed regions
    come back in reference seconds (:mod:`perflab.calibrate`), set-up in
    plain seconds.

    ``t_ready`` is when the interpreter became ready (set-up time runs
    from it to the first slice's timed region); ``build`` replaces the
    workload's builder (the rungs); ``before_finish(phases)`` runs between
    a slice's timed region and its output checks (tests corrupt an output
    there).
    """
    workload = WORKLOADS[name]
    params = workload.sizes[size]
    if t_ready is None:
        t_ready = time.perf_counter()
    probe = Probe(instrument=instrument)
    prof = cProfile.Profile() if profile else None
    speed = Speed()
    totals: Dict[str, PhaseTotal] = {}
    outcomes: List[Outcome] = []
    slice_walls: List[float] = []
    setup_s = None
    for index in range(params["slices"]):
        # every slice draws its own patterns, words and delay streams
        phases = (build or workload.build)(seed * 1009 + index, params, probe)
        gc.collect()
        if setup_s is None:
            setup_s = time.perf_counter() - t_ready
        speed.sample()
        for ph in phases:
            if prof is not None:
                prof.enable()
            t0 = time.perf_counter()
            ph.run()
            ph.wall_s = time.perf_counter() - t0
            if prof is not None:
                prof.disable()
        slice_walls.append(sum(ph.wall_s for ph in phases))
        if before_finish is not None:
            before_finish(phases)
        for ph in phases:
            o = ph.finish()
            outcomes.append(o)
            t = totals.setdefault(ph.name, PhaseTotal())
            t.ops += ph.ops
            t.sim_us += o.sim_us
            t.events += o.events
            t.stale += o.stale
            t.slice_walls_s.append(ph.wall_s)
        # the slice's machine goes before the next one is built, so peak
        # memory is one machine's
        del phases, ph
        gc.collect()
    speed.sample()

    # from here on the timed regions are in reference seconds.  Set-up
    # stays in plain seconds: over ten seeds on two workloads dividing it
    # by the kernel's factor made no measurable difference either way
    # (README, "Noise floor"), so it is left as the clock read it
    factor = speed.factor
    slice_walls = [w / factor for w in slice_walls]
    for t in totals.values():
        t.slice_walls_s = [w / factor for w in t.slice_walls_s]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    ops = sum(t.ops for t in totals.values())
    layer = derive(totals, outcomes, probe)
    out = {
        "workload": name, "seed": seed, "size": size,
        "slices": params["slices"],
        "machine_speed_x": factor,
        "setup_s": setup_s,
        "slice_walls_s": slice_walls,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_us": sum(t.sim_us for t in totals.values()),
        "paper_dev_pct": paper_dev_pct(name, layer),
        "attempted": attempted, "failed": failed,
        "notes": [n for o in outcomes for n in o.notes][:8],
        "ops": ops,
        "phases": {pname: {"ops": t.ops, "wall_s": t.wall_s,
                           "sim_us": t.sim_us, "events": t.events,
                           "stale": t.stale}
                   for pname, t in totals.items()},
        "layers": layer,
        "spans": probe.spans_json() if instrument else probe.host_spans,
    }
    if prof is not None:
        buckets = layers.bucket(prof.getstats())
        for lay, share in layers.shares(buckets).items():
            layer[f"{lay}.self_share"] = share
            layer[f"{lay}.py_calls_per_op"] = buckets[lay]["calls"] / ops
    if instrument:
        out["event_digest"] = probe.event_digest()
        pending = probe.pending_mean()
        if pending is not None:
            layer["sim.pending_mean"] = pending
        costs = probe.call_costs()
        out["call_costs_sim_us"] = costs
        if name == "am-pingpong":
            layer["am.request_1_sim_us"] = costs["am.request_1"]
            layer["am.reply_1_sim_us"] = costs["am.reply_1"]
    return out


# ---------------------------------------------------------------------------
# rungs: the same iteration count one layer down (or one checker up)
# ---------------------------------------------------------------------------

def _timed(fn: Callable[[], object]) -> float:
    """Host time of ``fn()`` in reference seconds."""
    speed = Speed()
    gc.collect()
    speed.sample()
    t0 = time.perf_counter()
    fn()
    wall = time.perf_counter() - t0
    speed.sample()
    return wall / speed.factor


def _pingpong_rungs(seed: int, size: str, am_wall_s: float) -> Dict[str, float]:
    """raw -> AM -> MPL at equal iteration count, plus the AM ping-pong
    with a Sanitizer and with an Observatory attached, plus one idle poll.
    Each rung's host cost minus the rung below is that layer's own cost."""
    from repro.am import attach_spam, raw_pingpong_roundtrip
    from repro.check import Sanitizer
    from repro.hardware import build_sp_machine
    from repro.mpl import attach_mpl
    from repro.obs import Observatory
    from repro.sim import Simulator
    from perflab.workloads import LIMIT_US, build_am_pingpong

    params = WORKLOADS["am-pingpong"].sizes[size]
    iters = params["slices"] * params["iters"]
    m: Dict[str, float] = {}

    machine = build_sp_machine(Simulator(), 2)
    box = {}
    wall = _timed(lambda: box.update(
        rtt=raw_pingpong_roundtrip(machine, iters)))
    m["hardware.raw_rtt_host_us"] = 1e6 * wall / iters
    m["hardware.raw_rtt_sim_us"] = box["rtt"]
    m["am.rtt_host_self_us"] = 1e6 * (am_wall_s - wall) / iters

    sim = Simulator()
    mpl0, mpl1 = attach_mpl(build_sp_machine(sim, 2))
    word = b"\x2a\x00\x00\x00"
    echoed = []

    def pinger():
        for _ in range(iters):
            yield from mpl0.mpc_bsend(word, 1, tag=7)
            echoed.append((yield from mpl0.mpc_brecv(4, 1, tag=8)))

    def ponger():
        for _ in range(iters):
            data = yield from mpl1.mpc_brecv(4, 0, tag=7)
            yield from mpl1.mpc_bsend(data, 0, tag=8)

    procs = [sim.spawn(pinger(), name="mpl-ping"),
             sim.spawn(ponger(), name="mpl-pong")]
    wall = _timed(lambda: sim.run_until_processes_done(procs, limit=LIMIT_US))
    if echoed != [word] * iters:
        raise AssertionError("MPL rung: echoed words differ")
    m["mpl.rtt_host_us"] = 1e6 * wall / iters
    m["mpl.rtt_sim_us"] = sim.now / iters

    attached = {}
    for metric, attach in (
            ("check.overhead_x", lambda mach: Sanitizer().attach(mach)),
            ("obs.overhead_x", lambda mach: Observatory().attach(mach))):
        def build(s, sz, pr, attach=attach, metric=metric):
            return build_am_pingpong(
                s, sz, pr,
                lambda mach: attached.setdefault(metric, []).append(
                    attach(mach)))
        run = run_once("am-pingpong", seed, size, build=build)
        if run["failed"]:
            raise AssertionError(f"{metric} rung failed its output checks")
        m[metric] = sum(run["slice_walls_s"]) / am_wall_s
    # the two attachments also give the per-op counts of their layers
    m["check.checks_per_op"] = sum(
        sum(san.snapshot().values())
        for san in attached["check.overhead_x"]) / iters
    m["obs.spans_per_op"] = sum(
        len(obs.spans) for obs in attached["obs.overhead_x"]) / iters

    sim = Simulator()
    machine = build_sp_machine(sim, 2)
    am0, _am1 = attach_spam(machine)
    t = {}

    def idle_poll():
        t["t0"] = sim.now
        handled = yield from am0.poll()
        t["t1"], t["handled"] = sim.now, handled

    sim.run_until_processes_done([sim.spawn(idle_poll())], limit=LIMIT_US)
    if t["handled"]:
        raise AssertionError("idle poll handled a packet")
    m["am.poll_empty_sim_us"] = t["t1"] - t["t0"]
    return m


def _store_ring_rung(size: str, mpi_ring_wall_s: float) -> Dict[str, float]:
    """The mpi-mix ring over bare ``am.store`` (the am_store curve of
    Figs 8/10): what the same hops cost without the MPI layer."""
    from repro.am import attach_spam
    from repro.hardware import build_sp_machine
    from repro.sim import Simulator
    from perflab.workloads import LIMIT_US

    params = WORKLOADS["mpi-mix"].sizes[size]
    laps = params["slices"] * params["laps"]
    nprocs = 4
    sim = Simulator()
    machine = build_sp_machine(sim, nprocs)
    ams = attach_spam(machine)
    bufs = [(machine.node(r).memory.alloc(4), machine.node(r).memory.alloc(4))
            for r in range(nprocs)]
    arrived = [0] * nprocs

    def h_arrived(token, addr, total, arg):
        arrived[token.am.node.id] += 1

    ams[0].register(h_arrived)

    def prog(rank):
        am = ams[rank]
        nxt = (rank + 1) % nprocs
        for lap in range(laps):
            if rank == 0:
                yield from am.store(nxt, bufs[0][0], bufs[nxt][1], 4,
                                    handler=h_arrived)
            while arrived[rank] <= lap:
                yield from am._wait_progress()
            if rank:
                yield from am.store(nxt, bufs[rank][0], bufs[nxt][1], 4,
                                    handler=h_arrived)

    procs = [sim.spawn(prog(r), name=f"store-ring{r}") for r in range(nprocs)]
    wall = _timed(lambda: sim.run_until_processes_done(procs, limit=LIMIT_US))
    if arrived != [laps] * nprocs:
        raise AssertionError(f"store-ring rung: arrivals {arrived}")
    hops = laps * nprocs
    return {"mpi.hop_host_self_us": 1e6 * (mpi_ring_wall_s - wall) / hops}


# ---------------------------------------------------------------------------
# the traced pass
# ---------------------------------------------------------------------------

#: untraced repeats inside the traced pass (noise floor, overhead base)
TRACE_PLAIN_REPEATS = 3


def trace_pass(name: str, seed: int, size: str = "trace") -> Dict:
    """Everything the traced pass measures for one workload."""
    plain = [run_once(name, seed, size) for _ in range(TRACE_PLAIN_REPEATS)]
    prof = run_once(name, seed, size, profile=True)
    inst = run_once(name, seed, size, instrument=True)
    runs = plain + [prof, inst]
    slices = plain[0]["slices"]
    stat = undisturbed([w for r in plain for w in r["slice_walls_s"]], slices)
    wall = stat["value"]

    # the simulation is deterministic: traced and untraced runs of one
    # seed must agree on every simulated quantity and every count
    mismatched = [k for k in ("sim_us", "paper_dev_pct", "attempted",
                              "failed", "ops")
                  if len({r[k] for r in runs}) > 1]
    layer = dict(plain[0]["layers"])
    for key in layer:
        if BY_NAME[key].exact:
            if len({r["layers"][key] for r in runs}) > 1:
                mismatched.append(key)
        else:  # host clock: the fastest of the untraced repeats
            best = max if BY_NAME[key].better == "higher" else min
            layer[key] = best(r["layers"][key] for r in plain)
    layer.update({k: v for k, v in prof["layers"].items()
                  if k.endswith((".self_share", ".py_calls_per_op"))})
    layer.update({k: v for k, v in inst["layers"].items()
                  if k in ("sim.pending_mean", "am.request_1_sim_us",
                           "am.reply_1_sim_us")})
    traced_walls = [sum(r["slice_walls_s"]) for r in (prof, inst)]
    layer["harness.trace_overhead_x"] = sum(traced_walls) / 2.0 / wall
    layer["harness.wall_iqr_pct"] = 100.0 * iqr_share(stat)
    if name == "am-pingpong":
        layer.update(_pingpong_rungs(seed, size, wall))
    elif name == "mpi-mix":
        ring_wall = min(r["phases"]["mpi-ring"]["wall_s"] for r in plain)
        layer.update(_store_ring_rung(size, ring_wall))

    return {
        "workload": name, "seed": seed, "size": size,
        "attempted": max(r["attempted"] for r in runs),
        "failed": max(r["failed"] for r in runs),
        "notes": [n for r in runs for n in r["notes"]][:8],
        "exact_mismatch": mismatched,
        "sim_us": plain[0]["sim_us"],
        "paper_dev_pct": plain[0]["paper_dev_pct"],
        "event_digest": inst["event_digest"],
        "call_costs_sim_us": inst["call_costs_sim_us"],
        "untraced_wall_s": wall, "profiled_wall_s": traced_walls[0],
        "instrumented_wall_s": traced_walls[1],
        "layers": layer,
        "spans": inst["spans"],
    }
