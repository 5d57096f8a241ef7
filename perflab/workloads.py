"""The seven workloads, their sizes, and their output checks.

Every workload is a closed-loop batch program: a rank issues its next
operation when the previous one completes, or keeps a fixed set of async
operations in flight.  Its fixed work is done in ``slices`` equal slices,
each on a freshly built machine, so that one repeat yields several
independent timings of the same work (the box this runs on slows down
by 20-50 % for seconds at a time; a median over slices shrugs that off,
one long timing cannot).  ``build(seed, params, probe)`` sets up one
slice (machine, attachments, buffers, patterns seeded per slice) and
returns its :class:`Phase` list; a phase's ``run`` is one timed call
(``run_until_processes_done`` / ``run_soak`` / ``run_campaigns``) and its
``finish`` verifies the outputs and collects the counts.

The programs use the public API only, with one exception: a rank that has
nothing to send blocks in ``am._wait_progress()``.  That is the
repository's own spelling of "spin on am_poll" (``examples/quickstart.py``,
every harness under ``repro.bench``); it has no public name, a busy
``am.poll()`` loop quadruples the event count, and a twin built from
``adapter.arrival_event()`` would skip the keep-alive timer whose
schedule-then-cancel traffic ``sim.stale_per_op`` exists to count.

``--seed`` feeds the payload patterns, the request words and the
``engine-churn`` delay streams; simulated time of the lossless machine
workloads does not depend on it.  It does not reach ``lossy-soak``, whose
fault plan and campaign are fixed: from one plan seed to the next the
soak's host time varies by 6-13 % and the campaign's by 17 % (ten seeds,
interquartile range over median), more than any bound we could then hold
the workload to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.am import attach_spam
from repro.am.constants import CHUNK_BYTES
from repro.hardware import build_sp_machine
from repro.mpi import attach_mpi
from repro.sim import Delay, Simulator, WaitEvent

from perflab.probe import Probe

#: simulated time limit of every run (a stuck protocol fails, not hangs)
LIMIT_US = 1e10


@dataclass
class Outcome:
    """What a phase produced, read after its timed call returned."""

    sim_us: float
    attempted: int
    failed: int
    events: int = 0
    stale: int = 0
    #: ``.stats`` counters summed over the machine, by bare counter name
    counters: Dict[str, float] = field(default_factory=dict)
    #: simulated-clock quantities, keyed by the metric they feed; the
    #: same in every slice of a lossless workload
    values: Dict[str, float] = field(default_factory=dict)
    #: additive quantities (summed over slices before any ratio is taken)
    sums: Dict[str, float] = field(default_factory=dict)
    #: payload bytes the workload asked to move (for payload_byte_share)
    useful_bytes: int = 0
    #: first few check failures, human-readable
    notes: List[str] = field(default_factory=list)


@dataclass
class Phase:
    name: str
    #: operations the phase attempts (the per-op denominators)
    ops: int
    run: Callable[[], object]
    finish: Callable[[], Outcome]
    #: handles for tests that corrupt an output before ``finish``
    state: Dict = field(default_factory=dict)
    wall_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Dict, Probe], List[Phase]]
    #: per size class, the number of ``slices`` and one slice's
    #: parameters.  ``full`` is the measured size, ``trace`` a quarter of
    #: it (fewer slices of the same shape), ``quick`` a smoke size
    sizes: Dict[str, Dict]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _machine(probe: Probe, sim: Simulator, nodes: int):
    with probe.span("build_sp_machine", "hardware") as rec:
        rec["nodes"] = nodes
        return build_sp_machine(sim, nodes)


def _spam(probe: Probe, machine):
    with probe.span("attach_spam", "am"):
        return attach_spam(machine)


def _runner(probe: Probe, sim: Simulator, procs) -> Callable[[], object]:
    def run():
        with probe.span("run_until_processes_done", "sim"):
            return sim.run_until_processes_done(procs, limit=LIMIT_US)
    return run


def machine_counters(machine) -> Dict[str, float]:
    """Every ``.stats`` registry of the machine, summed by counter name."""
    registries = [machine.switch.stats]
    for node in machine.nodes:
        registries.append(node.adapter.stats)
        if node.am is not None:
            registries.append(node.am.stats)
        if node.mpi is not None:
            registries.append(node.mpi.adi.stats)
    merged: Dict[str, float] = {}
    for reg in registries:
        for key, value in reg.snapshot().items():
            name = key.rsplit(".", 1)[-1]
            merged[name] = merged.get(name, 0) + value
    return merged


def _executed(sim: Simulator, sampler) -> int:
    """Events the workload itself executed: the traced pass's queue-depth
    sampler ticks on the same simulator and is not part of the program."""
    return sim.events_executed - (sampler.samples if sampler else 0)


def _note(notes: List[str], msg: str) -> None:
    if len(notes) < 8:
        notes.append(msg)


def _words(seed: int, salt: int) -> List[int]:
    rng = random.Random(seed * 1_000_003 + salt)
    return [rng.getrandbits(31) for _ in range(1024)]


def _pattern(seed: int, salt: int, nbytes: int) -> bytes:
    return random.Random(seed * 1_000_003 + salt).randbytes(nbytes)


def _count_mismatch(notes: List[str], what: str, got, want) -> int:
    if got == want:
        return 0
    _note(notes, f"{what}: got {got}, expected {want}")
    return 1


# ---------------------------------------------------------------------------
# engine-churn: repro.sim alone
# ---------------------------------------------------------------------------

def _closer(sim: Simulator, procs):
    """Finishes when every process in ``procs`` has: the one process the
    run waits on, so the engine's all-done scan stays O(1) at 4096."""
    def gen():
        for p in procs:
            yield WaitEvent(p.done)
    return sim.spawn(gen(), name="closer")


def _churn_phase(probe: Probe, name: str, sim: Simulator, procs, ops: int,
                 expect_events: int, expect_stale: int, bad: List[int],
                 period_us: float) -> Phase:
    closer = _closer(sim, procs)
    # the closer's own first step plus one wake-up per process it joins
    expect_events += len(procs) + 1
    sampler = probe.watch(sim, period_us)

    def finish() -> Outcome:
        notes: List[str] = []
        failed = bad[0]
        executed = _executed(sim, sampler)
        if bad[0]:
            _note(notes, f"{name}: {bad[0]} wrong callback values")
        # the closed forms below are the phase's output check: an engine
        # that drops, duplicates or resurrects an entry misses them
        failed += _count_mismatch(notes, f"{name} events executed",
                                  executed, expect_events)
        failed += _count_mismatch(notes, f"{name} stale entries skipped",
                                  sim.stale_events_skipped, expect_stale)
        return Outcome(sim_us=sim.now, attempted=ops + 2, failed=failed,
                       events=executed,
                       stale=sim.stale_events_skipped, notes=notes)

    return Phase(name, ops, _runner(probe, sim, [closer]), finish,
                 state={"sim": sim})


def _churn_shallow(seed: int, rounds: int, probe: Probe) -> Phase:
    """4 processes x Delay / Event / schedule mix, ~3 entries pending."""
    sim = Simulator()
    rng = random.Random(seed)
    d = [rng.uniform(0.2, 2.0) for _ in range(1024)]
    nproc = 4
    bad = [0]

    def bump():
        pass

    def proc(k):
        base = k * 257
        for i in range(rounds):
            yield Delay(d[(base + i) & 1023])
            m = i & 3
            if m == 0:
                ev = sim.event()
                sim.schedule(d[(base + i + 7) & 1023], ev.succeed, i)
                if (yield WaitEvent(ev)) != i:
                    bad[0] += 1
            elif m == 2:
                sim.schedule(0.5 * d[(base + i + 3) & 1023], bump)
        yield Delay(4.0)  # outlives the last bump (<= 1.0 us away)

    procs = [sim.spawn(proc(k), name=f"shallow{k}") for k in range(nproc)]
    waits = (rounds + 3) // 4   # i & 3 == 0: callback + resume
    plain = (rounds + 1) // 4   # i & 3 == 2: callback
    per_proc = 1 + rounds + 2 * waits + plain + 1
    return _churn_phase(probe, "shallow", sim, procs, nproc * rounds,
                        nproc * per_proc, 0, bad, period_us=53.0)


def _churn_deep(seed: int, nproc: int, rounds: int, probe: Probe) -> Phase:
    """``nproc`` processes, each with a resume and a callback pending."""
    sim = Simulator()
    rng = random.Random(seed + 1)
    d = [rng.uniform(20.0, 180.0) for _ in range(1024)]
    bad = [0]

    def bump():
        pass

    def proc(k):
        base = k * 31
        for i in range(rounds):
            sim.schedule(d[(base + 2 * i + 1) & 1023], bump)
            yield Delay(d[(base + 2 * i) & 1023])
        yield Delay(200.0)  # outlives the last callback (<= 180 us away)

    procs = [sim.spawn(proc(k), name=f"deep{k}") for k in range(nproc)]
    per_proc = 1 + 2 * rounds + 1
    return _churn_phase(probe, "deep", sim, procs, nproc * rounds,
                        nproc * per_proc, 0, bad, period_us=11.0)


def _churn_timers(seed: int, iters: int, probe: Probe) -> Phase:
    """``call_later`` of which 90 % are cancelled before they fire: the
    protocol's keep-alive pattern (arm 400 us, cancel on the next packet)."""
    sim = Simulator()
    rng = random.Random(seed + 2)
    d = [rng.uniform(0.5, 2.0) for _ in range(1024)]
    nproc = 4
    bad = [0]

    def fire():
        pass

    def proc(k):
        base = k * 257
        for i in range(iters):
            handle = sim.call_later(400.0, fire)
            yield Delay(d[(base + i) & 1023])
            if i % 10 and not handle.cancel():
                bad[0] += 1
        yield Delay(500.0)  # outlives every timer left to fire

    procs = [sim.spawn(proc(k), name=f"timers{k}") for k in range(nproc)]
    left = (iters + 9) // 10
    per_proc = 1 + iters + left + 1
    return _churn_phase(probe, "timers", sim, procs, nproc * iters,
                        nproc * per_proc, nproc * (iters - left),
                        bad, period_us=53.0)


def build_engine_churn(seed: int, size: Dict, probe: Probe) -> List[Phase]:
    with probe.span("build processes", "harness"):
        return [
            _churn_shallow(seed, size["shallow_rounds"], probe),
            _churn_deep(seed, size["deep_procs"], size["deep_rounds"], probe),
            _churn_timers(seed, size["timer_iters"], probe),
        ]


# ---------------------------------------------------------------------------
# am-pingpong: one-word request/reply round trips (paper 2.3)
# ---------------------------------------------------------------------------

def build_am_pingpong(seed: int, size: Dict, probe: Probe,
                      attach: Optional[Callable] = None) -> List[Phase]:
    """``attach(machine)`` runs after the AM layer is installed; the traced
    pass uses it for the Sanitizer and Observatory rungs."""
    iters = size["iters"]
    sim = Simulator()
    machine = _machine(probe, sim, 2)
    am0, am1 = _spam(probe, machine)
    if attach is not None:
        attach(machine)
    words = _words(seed, 1)
    counts = {"got": 0, "served": 0, "bad": 0}
    span = {}

    def h_reply(token, x):
        if x != words[counts["got"] & 1023]:
            counts["bad"] += 1
        counts["got"] += 1

    def h_request(token, x):
        counts["served"] += 1
        yield from probe.stamp("am.reply_1", counts["served"] - 1, sim,
                               token.reply_1(h_reply, x))

    am0.register(h_reply)
    am0.register(h_request)

    def pinger():
        span["t0"] = sim.now
        for i in range(iters):
            before = counts["got"]
            yield from probe.stamp(
                "am.request_1", i, sim,
                am0.request_1(1, h_request, words[i & 1023]))
            while counts["got"] == before:
                yield from am0._wait_progress()
        span["t1"] = sim.now

    def ponger():
        while counts["served"] < iters:
            yield from am1._wait_progress()

    p = sim.spawn(pinger(), name="ping")
    sim.spawn(ponger(), name="pong")
    sampler = probe.watch(sim, period_us=97.3)

    def finish() -> Outcome:
        notes: List[str] = []
        failed = counts["bad"]
        if counts["bad"]:
            _note(notes, f"{counts['bad']} replies echoed the wrong word")
        failed += _count_mismatch(notes, "request handler runs",
                                  counts["served"], iters)
        failed += _count_mismatch(notes, "reply handler runs",
                                  counts["got"], iters)
        rtt = (span.get("t1", sim.now) - span["t0"]) / iters
        return Outcome(sim_us=sim.now, attempted=iters, failed=failed,
                       events=_executed(sim, sampler),
                       stale=sim.stale_events_skipped,
                       counters=machine_counters(machine),
                       values={"am.rtt_sim_us": rtt},
                       useful_bytes=8 * iters, notes=notes)

    return [Phase("pingpong", iters, _runner(probe, sim, [p]), finish,
                  state={"counts": counts, "machine": machine})]


# ---------------------------------------------------------------------------
# am-bulk: blocking store + get, then pipelined store_async (2.1, 2.4)
# ---------------------------------------------------------------------------

def build_am_bulk(seed: int, size: Dict, probe: Probe) -> List[Phase]:
    block, rounds = size["block"], size["rounds"]
    pipe_ops, op_bytes = size["pipe_ops"], CHUNK_BYTES
    sim = Simulator()
    machine = _machine(probe, sim, 2)
    am0, am1 = _spam(probe, machine)
    mem0, mem1 = machine.node(0).memory, machine.node(1).memory
    with probe.span("buffers", "harness"):
        # round k stores pattern[64k : 64k + block], so a round that
        # moved nothing cannot hide behind the round before it
        pattern = _pattern(seed, 2, block + 64 * rounds)
        src = mem0.alloc(len(pattern))
        mem0.write(src, pattern)
        dst = mem1.alloc(block)
        back = mem0.alloc(block)
        pipe_pattern = _pattern(seed, 3, pipe_ops * op_bytes)
        pipe_src = mem0.alloc(len(pipe_pattern))
        mem0.write(pipe_src, pipe_pattern)
        pipe_dst = mem1.alloc(len(pipe_pattern))
    t = {"store": 0.0, "get": 0.0, "pipe": 0.0}
    counts = {"bad": 0, "done": 0}
    notes: List[str] = []

    def h_done(token, x):
        counts["done"] += 1

    am0.register(h_done)

    def mover():
        for k in range(rounds):
            want = pattern[64 * k: 64 * k + block]
            t0 = sim.now
            yield from probe.stamp(
                "am.store", k, sim, am0.store(1, src + 64 * k, dst, block))
            t1 = sim.now
            if mem1.read(dst, block) != want:
                counts["bad"] += 1
                _note(notes, f"round {k}: stored block differs")
            yield from probe.stamp(
                "am.get", k, sim, am0.get(1, dst, back, block))
            t["store"] += t1 - t0
            t["get"] += sim.now - t1
            if mem0.read(back, block) != want:
                counts["bad"] += 1
                _note(notes, f"round {k}: fetched block differs")
        t0 = sim.now
        ops = []
        for j in range(pipe_ops):
            off = j * op_bytes
            ops.append((yield from probe.stamp(
                "am.store_async", rounds + j, sim,
                am0.store_async(1, pipe_src + off, pipe_dst + off,
                                op_bytes))))
        for j, op in enumerate(ops):
            yield from probe.stamp("am.wait_op", rounds + j, sim,
                                   am0.wait_op(op))
        t["pipe"] = sim.now - t0
        yield from am0.request_1(1, h_done, 0)

    def server():
        while not counts["done"]:
            yield from am1._wait_progress()

    p = sim.spawn(mover(), name="bulk")
    q = sim.spawn(server(), name="bulk-server")
    sampler = probe.watch(sim, period_us=97.3)
    ops = 2 * rounds + pipe_ops

    def finish() -> Outcome:
        failed = counts["bad"]
        landed = mem1.read(pipe_dst, len(pipe_pattern))
        for j in range(pipe_ops):
            lo = j * op_bytes
            if landed[lo: lo + op_bytes] != pipe_pattern[lo: lo + op_bytes]:
                failed += 1
                _note(notes, f"pipelined op {j}: destination differs")
        failed += _count_mismatch(notes, "done marker runs",
                                  counts["done"], 1)
        values = {}
        if rounds:
            values["am.store_sim_mb_s"] = rounds * block / t["store"]
            values["am.get_sim_mb_s"] = rounds * block / t["get"]
        if pipe_ops:
            values["am.store_async_sim_mb_s"] = (
                pipe_ops * op_bytes / t["pipe"])
        return Outcome(sim_us=sim.now, attempted=ops, failed=failed,
                       events=_executed(sim, sampler),
                       stale=sim.stale_events_skipped,
                       counters=machine_counters(machine), values=values,
                       useful_bytes=2 * rounds * block + pipe_ops * op_bytes,
                       notes=notes)

    return [Phase("bulk", ops, _runner(probe, sim, [p, q]), finish,
                  state={"machine": machine, "pipe_dst": pipe_dst,
                         "counts": counts})]


# ---------------------------------------------------------------------------
# alltoall-16: converging store_async traffic (4.4)
# ---------------------------------------------------------------------------

def build_alltoall(seed: int, size: Dict, probe: Probe) -> List[Phase]:
    nodes, nbytes, rounds = size["nodes"], size["nbytes"], size["rounds"]
    sim = Simulator()
    machine = _machine(probe, sim, nodes)
    ams = _spam(probe, machine)
    with probe.span("buffers", "harness"):
        # one source block and one destination region per round, so the
        # end-of-run compare covers every store of every round
        patterns = [_pattern(seed, 100 + r, rounds * nbytes)
                    for r in range(nodes)]
        srcs = []
        for r in range(nodes):
            mem = machine.node(r).memory
            addr = mem.alloc(rounds * nbytes)
            mem.write(addr, patterns[r])
            srcs.append(addr)
        dsts = [[machine.node(i).memory.alloc(rounds * nbytes)
                 for _ in range(nodes)] for i in range(nodes)]
    markers = [[0] * nodes for _ in range(nodes)]

    def h_done(token, src):
        markers[token.am.node.id][src] += 1

    ams[0].register(h_done)

    def rank(r):
        am = ams[r]
        for k in range(rounds):
            off = k * nbytes
            ops = []
            for step in range(1, nodes):  # staggered: no two ranks share
                peer = (r + step) % nodes  # a target in the same step
                ops.append((yield from probe.stamp(
                    "am.store_async", (r * rounds + k) * nodes + peer, sim,
                    am.store_async(peer, srcs[r] + off,
                                   dsts[peer][r] + off, nbytes))))
            for op in ops:
                yield from am.wait_op(op)
        for step in range(1, nodes):
            yield from am.request_1((r + step) % nodes, h_done, r)
        while sum(markers[r]) < nodes - 1:
            yield from am._wait_progress()

    procs = [sim.spawn(rank(r), name=f"a2a{r}") for r in range(nodes)]
    sampler = probe.watch(sim, period_us=97.3)
    ops = nodes * (nodes - 1) * rounds

    def finish() -> Outcome:
        notes: List[str] = []
        failed = 0
        for i in range(nodes):
            mem = machine.node(i).memory
            for r in range(nodes):
                if r == i:
                    continue
                landed = mem.read(dsts[i][r], rounds * nbytes)
                for k in range(rounds):
                    lo = k * nbytes
                    if landed[lo: lo + nbytes] != patterns[r][lo: lo + nbytes]:
                        failed += 1
                        _note(notes, f"store {r}->{i} round {k} differs")
                failed += _count_mismatch(
                    notes, f"done marker {r}->{i}", markers[i][r], 1)
        return Outcome(sim_us=sim.now, attempted=ops, failed=failed,
                       events=_executed(sim, sampler),
                       stale=sim.stale_events_skipped,
                       counters=machine_counters(machine),
                       useful_bytes=ops * nbytes, notes=notes)

    return [Phase("alltoall", ops, _runner(probe, sim, procs), finish,
                  state={"machine": machine, "dsts": dsts})]


# ---------------------------------------------------------------------------
# ring-256: the deepest real queue
# ---------------------------------------------------------------------------

def build_ring(seed: int, size: Dict, probe: Probe) -> List[Phase]:
    nodes, iters = size["nodes"], size["iters"]
    sim = Simulator()
    machine = _machine(probe, sim, nodes)
    ams = _spam(probe, machine)
    words = _words(seed, 4)
    got = [0] * nodes
    sums = [0] * nodes

    def h_word(token, x):
        nid = token.am.node.id
        got[nid] += 1
        sums[nid] += x

    ams[0].register(h_word)

    def rank(r):
        am = ams[r]
        right = (r + 1) % nodes
        for i in range(iters):
            yield from probe.stamp(
                "am.request_1", r * iters + i, sim,
                am.request_1(right, h_word, words[(r + i) & 1023]))
        # my left neighbour can only push its quota while I poll, so this
        # node-local condition is also the global one
        while got[r] < iters:
            yield from am._wait_progress()

    procs = [sim.spawn(rank(r), name=f"ring{r}") for r in range(nodes)]
    sampler = probe.watch(sim, period_us=2.3)
    ops = nodes * iters

    def finish() -> Outcome:
        notes: List[str] = []
        failed = 0
        for r in range(nodes):
            left = (r - 1) % nodes
            want = sum(words[(left + i) & 1023] for i in range(iters))
            failed += _count_mismatch(notes, f"node {r} handler runs",
                                      got[r], iters)
            failed += _count_mismatch(notes, f"node {r} word checksum",
                                      sums[r], want)
        return Outcome(sim_us=sim.now, attempted=ops, failed=failed,
                       events=_executed(sim, sampler),
                       stale=sim.stale_events_skipped,
                       counters=machine_counters(machine),
                       useful_bytes=4 * ops, notes=notes)

    return [Phase("ring", ops, _runner(probe, sim, procs), finish,
                  state={"got": got, "machine": machine})]


# ---------------------------------------------------------------------------
# mpi-mix: optimized MPI-AM, 4-byte ring then 1 KB .. 64 KB streams
# ---------------------------------------------------------------------------

def _mpi_ring(seed: int, laps: int, probe: Probe) -> Phase:
    """Figs 8/10: messages around a ring of 4 nodes, time per hop."""
    nprocs = 4
    sim = Simulator()
    machine = _machine(probe, sim, nprocs)
    _spam(probe, machine)
    with probe.span("attach_mpi", "mpi"):
        mpis = attach_mpi(machine)
    words = [w.to_bytes(4, "little") for w in _words(seed, 5)]
    slots = [(machine.node(r).memory.alloc(4), machine.node(r).memory.alloc(4))
             for r in range(nprocs)]
    counts = {"bad": 0, "laps": 0}

    def prog(rank):
        mpi = mpis[rank]
        mem = machine.node(rank).memory
        out, inn = slots[rank]
        nxt, prev = (rank + 1) % nprocs, (rank - 1) % nprocs
        for lap in range(laps):
            op = lap * nprocs + rank
            if rank == 0:
                mem.write(out, words[lap & 1023])
                yield from probe.stamp("mpi.send", op, sim,
                                       mpi.send((out, 4), nxt, tag=lap))
                yield from probe.stamp(
                    "mpi.recv", op, sim,
                    mpi.recv(4, prev, tag=lap, addr=inn))
                if mem.read(inn, 4) != words[lap & 1023]:
                    counts["bad"] += 1
                counts["laps"] += 1
            else:
                yield from probe.stamp(
                    "mpi.recv", op, sim,
                    mpi.recv(4, prev, tag=lap, addr=inn))
                yield from probe.stamp("mpi.send", op, sim,
                                       mpi.send((inn, 4), nxt, tag=lap))

    procs = [sim.spawn(prog(r), name=f"mpi-ring{r}") for r in range(nprocs)]
    sampler = probe.watch(sim, period_us=97.3)
    hops = laps * nprocs

    def finish() -> Outcome:
        notes: List[str] = []
        failed = counts["bad"] * nprocs
        if counts["bad"]:
            _note(notes, f"{counts['bad']} laps returned the wrong word")
        failed += _count_mismatch(notes, "laps completed",
                                  counts["laps"], laps)
        return Outcome(sim_us=sim.now, attempted=hops, failed=failed,
                       events=_executed(sim, sampler),
                       stale=sim.stale_events_skipped,
                       counters=machine_counters(machine),
                       values={"mpi.hop_sim_us": sim.now / hops},
                       useful_bytes=4 * hops, notes=notes)

    return Phase("mpi-ring", hops, _runner(probe, sim, procs), finish,
                 state={"counts": counts})


#: stream message sizes (Figs 9/11): buffered, buffered at the bin edge,
#: hybrid, rendez-vous
STREAM_SIZES = (("1k", 1024), ("4k", 4096), ("16k", 16384), ("64k", 65536))


def _mpi_streams(seed: int, total: int, probe: Probe) -> Phase:
    """One-way isend/recv streams of ``total`` bytes at each size."""
    sim = Simulator()
    machine = _machine(probe, sim, 2)
    _spam(probe, machine)
    with probe.span("attach_mpi", "mpi"):
        mpi0, mpi1 = attach_mpi(machine)
    mem0, mem1 = machine.node(0).memory, machine.node(1).memory
    with probe.span("buffers", "harness"):
        pattern = _pattern(seed, 6, total)
        src = mem0.alloc(total)
        mem0.write(src, pattern)
        dsts = [mem1.alloc(total) for _ in STREAM_SIZES]
        ack0, ack1 = mem0.alloc(4), mem1.alloc(4)
    t = {}
    ack_tag = 1 << 20

    def sender():
        op = 0
        for k, (label, n) in enumerate(STREAM_SIZES):
            t[label, 0] = sim.now
            reqs = []
            for i in range(total // n):
                reqs.append((yield from probe.stamp(
                    "mpi.isend", op, sim,
                    mpi0.isend((src + i * n, n), 1, tag=i))))
                op += 1
            yield from mpi0.waitall(reqs)
            yield from mpi0.recv(4, 1, tag=ack_tag + k, addr=ack0)

    def receiver():
        op = 0
        for k, (label, n) in enumerate(STREAM_SIZES):
            for i in range(total // n):
                yield from probe.stamp(
                    "mpi.recv", op, sim,
                    mpi1.recv(n, 0, tag=i, addr=dsts[k] + i * n))
                op += 1
            t[label, 1] = sim.now
            yield from mpi1.send((ack1, 4), 0, tag=ack_tag + k)

    procs = [sim.spawn(sender(), name="mpi-send"),
             sim.spawn(receiver(), name="mpi-recv")]
    sampler = probe.watch(sim, period_us=97.3)
    ops = sum(total // n for _label, n in STREAM_SIZES)

    def finish() -> Outcome:
        notes: List[str] = []
        failed = 0
        values = {}
        for k, (label, n) in enumerate(STREAM_SIZES):
            landed = mem1.read(dsts[k], total)
            for i in range(total // n):
                if landed[i * n: (i + 1) * n] != pattern[i * n: (i + 1) * n]:
                    failed += 1
                    _note(notes, f"{label} message {i} differs")
            values[f"mpi.bw_{label}_sim_mb_s"] = (
                total / (t[label, 1] - t[label, 0]))
        return Outcome(sim_us=sim.now, attempted=ops, failed=failed,
                       events=_executed(sim, sampler),
                       stale=sim.stale_events_skipped,
                       counters=machine_counters(machine), values=values,
                       useful_bytes=len(STREAM_SIZES) * total, notes=notes)

    return Phase("mpi-streams", ops, _runner(probe, sim, procs), finish,
                 state={"machine": machine, "dsts": dsts})


def build_mpi_mix(seed: int, size: Dict, probe: Probe) -> List[Phase]:
    return [_mpi_ring(seed, size["laps"], probe),
            _mpi_streams(seed, size["stream_bytes"], probe)]


# ---------------------------------------------------------------------------
# lossy-soak: the CI chaos/check path, off the fast path
# ---------------------------------------------------------------------------

#: the fault plan and the campaign are fixed: see the module docstring
PLAN_SEED = 1100


def _soak_phase(plan_seed: int, size: Dict, probe: Probe) -> Phase:
    from repro.faults import run_soak

    nodes, pingpong = 3, size["pingpong"]
    bulk_bytes = size["bulk_chunks"] * CHUNK_BYTES + 123
    box = {}

    def run():
        with probe.span("run_soak", "faults"):
            box["res"] = run_soak(seed=plan_seed, loss=0.01, nodes=nodes,
                                  pingpong=pingpong, bulk_bytes=bulk_bytes,
                                  compare_clean=True,
                                  sim_check=probe.recorder())

    # per rank: the ping-pongs, a bulk store and its read-back; the
    # Split-C phase is checked through ``violations`` as well
    ops = nodes * (pingpong + 2)

    def finish() -> Outcome:
        res = box["res"]
        sim = res.obs.machine.sim
        sums = {"faults.lossy_us": res.elapsed_us,
                "faults.clean_us": res.clean_elapsed_us,
                "faults.injected": res.total_injected,
                "obs.spans": len(res.obs.spans)}
        return Outcome(sim_us=res.elapsed_us, attempted=ops,
                       failed=min(ops, len(res.violations)),
                       events=sim.events_executed,
                       stale=sim.stale_events_skipped,
                       counters=dict(res.counters), sums=sums,
                       useful_bytes=nodes * (8 * pingpong + 2 * bulk_bytes),
                       notes=list(res.violations[:8]))

    return Phase("soak", ops, run, finish, state=box)


def _campaign_phase(campaign_seed: int, size: Dict, probe: Probe) -> Phase:
    from repro.check import run_campaigns

    nops = size["nops"]
    box = {}

    def run():
        with probe.span("run_campaigns", "check"):
            box["res"] = run_campaigns([campaign_seed], nodes=4, nops=nops,
                                       loss=0.01)

    def finish() -> Outcome:
        (res,) = box["res"]
        notes: List[str] = []
        for v in res.violations:
            _note(notes, f"campaign seed {res.seed}: {v}")
        if probe.instrument:
            probe.extra_digests.append(f"{res.digest:x}")
        return Outcome(sim_us=res.elapsed_us, attempted=nops,
                       failed=min(nops, len(res.violations)),
                       sums={"check.checks": sum(res.checks.values())},
                       notes=notes)

    return Phase("campaigns", nops, run, finish, state=box)


def build_lossy_soak(seed: int, size: Dict, probe: Probe) -> List[Phase]:
    return [_soak_phase(PLAN_SEED, size, probe),
            _campaign_phase(PLAN_SEED, size, probe)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "engine-churn",
        "pure repro.sim (Delay/Event/schedule mix, 4096-process deep queue, "
        "90%-cancelled timers): the only workload where the engine is all "
        "of the work",
        build_engine_churn,
        # 8 slices: 1.5 M shallow events, 0.4 M deep, 0.3 M call_later
        {"full": dict(slices=8, shallow_rounds=26_750, deep_procs=4096,
                      deep_rounds=6, timer_iters=9_375),
         "trace": dict(slices=2, shallow_rounds=26_750, deep_procs=4096,
                       deep_rounds=6, timer_iters=9_375),
         "quick": dict(slices=1, shallow_rounds=4_000, deep_procs=512,
                       deep_rounds=6, timer_iters=2_000)}),
    Workload(
        "am-pingpong",
        "one-word request_1/reply_1 round trips on 2 nodes: the "
        "small-message latency path of am + adapter/switch, queue depth 3, "
        "pins 51.0 us",
        build_am_pingpong,
        # 30 000 round trips
        {"full": dict(slices=8, iters=3_750),
         "trace": dict(slices=2, iters=3_750),
         "quick": dict(slices=1, iters=600)}),
    Workload(
        "am-bulk",
        "blocking 256 KB store then get, then pipelined 8064 B "
        "store_async: chunk protocol, payload copies and CRC, both "
        "directions; pins r_inf",
        build_am_bulk,
        # 24 x (store + get of 256 KB), then 4 MB pipelined
        {"full": dict(slices=8, block=262_144, rounds=3, pipe_ops=65),
         "trace": dict(slices=2, block=262_144, rounds=3, pipe_ops=65),
         "quick": dict(slices=1, block=65_536, rounds=1, pipe_ops=16)}),
    Workload(
        "alltoall-16",
        "16 ranks, staggered 16 KB store_async to every peer: output-link "
        "contention in hardware.switch, queue depth 70-100",
        build_alltoall,
        # 6 rounds
        {"full": dict(slices=6, nodes=16, nbytes=16_384, rounds=1),
         "trace": dict(slices=2, nodes=16, nbytes=16_384, rounds=1),
         "quick": dict(slices=1, nodes=8, nbytes=4_096, rounds=1)}),
    Workload(
        "ring-256",
        "256 nodes each sending one-word requests to the right neighbour: "
        "deepest real queue, largest set-up time and memory",
        build_ring,
        # 256 requests per node
        {"full": dict(slices=4, nodes=256, iters=64),
         "trace": dict(slices=1, nodes=256, iters=64),
         "quick": dict(slices=1, nodes=32, iters=16)}),
    Workload(
        "mpi-mix",
        "optimized MPI-AM: 4-byte 4-node ring, then isend/recv streams at "
        "1/4/16/64 KB straddling buffered, hybrid and rendez-vous; the only "
        "workload where mpi is a visible share",
        build_mpi_mix,
        # 2000 laps, 2 MB per stream size
        {"full": dict(slices=8, laps=250, stream_bytes=1 << 18),
         "trace": dict(slices=2, laps=250, stream_bytes=1 << 18),
         "quick": dict(slices=1, laps=40, stream_bytes=1 << 17)}),
    Workload(
        "lossy-soak",
        "run_soak at 1% loss plus a sanitized campaign, fixed fault plan: "
        "timers fire, go-back-N retransmits, obs, fault injector and "
        "sanitizer all live; the CI chaos/check path",
        build_lossy_soak,
        # 600 ping-pongs per rank, 40 chunks, 8 campaigns of 64 ops
        {"full": dict(slices=8, pingpong=75, bulk_chunks=5, nops=64),
         "trace": dict(slices=2, pingpong=75, bulk_chunks=5, nops=64),
         "quick": dict(slices=1, pingpong=24, bulk_chunks=2, nops=16)}),
)}
