"""The paper's claims as data: one registry that ``pytest benchmarks/``
checks and every ``spam-bench`` table/figure command prints.

Two parts:

* **experiments** — one memoised function per table, figure or ablation
  (:data:`EXPERIMENTS`).  Memoisation is a process-level ``lru_cache``,
  and the point kernels two experiments share (a bandwidth point, a ring
  hop) are memoised too, so every ``(kernel, args)`` is simulated once
  per session: Table 3 reads Figure 3's sweep points and §2.3's round
  trips, and Figure 4 reads Table 5's runs.
* **claims** — one :class:`Claim` row per checked statement
  (:data:`CLAIMS`): an id, the paper section, the quantity, the paper's
  value, a tolerance around it or an ordering relation, and a status.  A
  row whose status is ``open: ROADMAP <item>`` is a known deviation;
  ``benchmarks/`` runs it as a strict xfail, so fixing it fails the gate
  until the row says ``holds``.

Orderings are rows over ratios: "MPL's net phase is more than 3x AM's"
is the row *MPL / AM net time* with the bound ``> 3``.  Results are
simulated time from the deterministic model, so a rerun reads the same
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

import repro.am.constants as am_constants
import repro.am.endpoint as am_endpoint
from repro.am import attach_spam, compute_interruptible, compute_polled
from repro.apps.matmul import run_matmul
from repro.apps.nas import NAS_KERNELS, run_ft
from repro.apps.radix_sort import run_radix_sort
from repro.apps.sample_sort import run_sample_sort
from repro.apps.workloads import STACKS, AppResult
from repro.bench.bandwidth import (
    MODES,
    _measure_am,
    measure_bandwidth,
    n_half,
    r_inf,
)
from repro.bench.figures import (
    MPI_VARIANTS,
    PROTOCOL_CONFIGS,
    mpi_bandwidth,
    mpi_ring_latency,
    mpi_stream,
    protocol_bandwidth,
)
from repro.bench.harness import run_programs
from repro.bench.pingpong import (
    am_roundtrip,
    measure_send_overhead,
    mpl_roundtrip,
    raw_roundtrip,
)
from repro.bench.report import paper_vs_measured
from repro.hardware import build_sp_machine
from repro.hardware.params import machine_params, with_overrides
from repro.mpi import OPTIMIZED, UNOPTIMIZED, attach_mpi
from repro.mpi.am_collectives import (
    am_alltoall,
    am_bcast,
    setup_am_collectives,
)
from repro.mpi.config import variant
from repro.sim import Delay, Simulator

_memo = lru_cache(maxsize=None)

# ---------------------------------------------------------------- kernels
# shared between experiments, so memoised on their own

_bw = _memo(measure_bandwidth)
_ring = _memo(mpi_ring_latency)


def _curves(kernel: Callable, names: Sequence[str], sizes: Sequence[int],
            *args) -> Dict[str, Dict[int, float]]:
    return {v: {n: kernel(v, n, *args) for n in sizes} for v in names}


def _series(curve: Dict[int, float]) -> List[Tuple[int, float]]:
    return list(curve.items())


@_memo
def _pingpong(words: int):
    """§2.3's M-word AM ping-pong, whose first calls are Table 2's."""
    return am_roundtrip(words, 100 if words == 1 else 60)


# ------------------------------------------------------------ experiments


@_memo
def roundtrip() -> Dict[str, float]:
    """§2.3 round-trip latency (us)"""
    return {"raw": raw_roundtrip(100),
            **{f"am{w}": _pingpong(w).rtt_us for w in (1, 2, 3, 4)},
            "mpl": mpl_roundtrip(100)}


@_memo
def table2() -> Dict[str, Dict[int, float]]:
    """Table 2: AM call costs (us)"""
    return {"request": {w: _pingpong(w).request_us for w in (1, 2, 3, 4)},
            "reply": {w: _pingpong(w).reply_us for w in (1, 2, 3, 4)}}


@_memo
def fig3() -> Dict[str, Dict[int, float]]:
    """Figure 3: bulk-transfer bandwidth"""
    return _curves(_bw, MODES, [64, 256, 1024, 4096, 8064, 16384, 65536,
                                262144, 1048576])


@_memo
def table3() -> Dict[str, float]:
    """Table 3: SP AM vs IBM MPL summary"""
    async_sizes = [64, 128, 256, 512, 1024, 4096, 16384, 262144, 1048576]
    block_sizes = [256, 1024, 2048, 4096, 8064, 16384, 65536, 262144]
    c = _curves(_bw, ("am_store_async", "mpl_send"), async_sizes)
    c.update(_curves(_bw, ("am_store", "mpl_send_reply"), block_sizes))
    s = {mode: _series(curve) for mode, curve in c.items()}
    rtt = roundtrip()
    return {
        "rtt_am": rtt["am1"],
        "rtt_mpl": rtt["mpl"],
        "rinf_am": r_inf(s["am_store_async"]),
        "rinf_mpl": r_inf(s["mpl_send"]),
        "nhalf_am_async": n_half(s["am_store_async"], 34.3),
        "nhalf_mpl_async": n_half(s["mpl_send"], 34.6),
        "nhalf_am_block": n_half(s["am_store"], 34.3),
        "nhalf_mpl_block": n_half(s["mpl_send_reply"], 34.6),
    }


@_memo
def table4() -> Dict[str, Dict[str, float]]:
    """Table 4: machine comparison"""
    return {name: {"overhead": measure_send_overhead(name),
                   "rtt": am_roundtrip(1, 60, name).rtt_us,
                   "bw": measure_bandwidth("am_store", 262144, 262144,
                                           machine_params(name))}
            for name in ("cm5", "meiko", "unet", "sp-thin")}


#: the paper's sorts run ~131072 keys per processor; ours are projected
PAPER_KEYS_PER_PROC = 131072


@dataclass(frozen=True)
class SplitCRuns:
    """Table 5's runs, keyed ``(bench, stack)``, and the factor that
    projects a sort's times to the paper's scale."""

    scale: int
    runs: Dict[Tuple[str, str], AppResult]


@_memo
def table5(keys: int = 2048) -> SplitCRuns:
    """Table 5 + Figure 4: Split-C applications on five stacks (s)"""
    runs = {}
    for stack in STACKS:
        for bench, variant in (("smpsort-sm", "small"),
                               ("smpsort-lg", "bulk")):
            runs[bench, stack] = run_sample_sort(
                stack, nprocs=8, keys_per_proc=keys, variant=variant)
    for stack in ("sp-am", "sp-mpl"):
        for bench, variant in (("rdxsort-sm", "small"),
                               ("rdxsort-lg", "large")):
            runs[bench, stack] = run_radix_sort(
                stack, nprocs=8, keys_per_proc=keys, variant=variant)
    for stack in ("sp-am", "sp-mpl", "cm5"):
        runs["mm128", stack] = run_matmul(stack, nprocs=8, n=4, b=128)
        runs["mm16", stack] = run_matmul(stack, nprocs=8, n=16, b=16)
    return SplitCRuns(PAPER_KEYS_PER_PROC // keys, runs)


@_memo
def _nas(kernel: str) -> Dict[str, Any]:
    am = NAS_KERNELS[kernel]("mpi-am")
    f = NAS_KERNELS[kernel]("mpi-f")
    return {"MPI-F": f.elapsed_s, "MPI-AM": am.elapsed_s,
            "verified": am.verified and f.verified}


@_memo
def table6(kernels: Tuple[str, ...] = tuple(sorted(NAS_KERNELS))) -> Dict:
    """Table 6: NAS kernels, 16 thin nodes (s)"""
    return {k: _nas(k) for k in kernels}


@_memo
def fig7() -> Dict[str, Dict[int, float]]:
    """Figure 7: protocol bandwidth"""
    return _curves(protocol_bandwidth, PROTOCOL_CONFIGS,
                   [512, 1024, 2048, 4096, 8192, 12288, 16384])


@_memo
def fig8() -> Dict[str, Dict[int, float]]:
    """Figure 8: MPI per-hop latency, thin nodes"""
    return _curves(_ring, MPI_VARIANTS, [4, 64, 256, 1024, 4096, 16384],
                   "sp-thin")


@_memo
def fig9() -> Dict[str, Dict[int, float]]:
    """Figure 9: MPI bandwidth, thin nodes"""
    return _curves(mpi_bandwidth, MPI_VARIANTS,
                   [256, 1024, 4096, 6144, 8192, 16384, 32768, 131072,
                    524288], "sp-thin")


@_memo
def fig10() -> Dict[str, Dict[int, float]]:
    """Figure 10: MPI per-hop latency, wide nodes"""
    return _curves(_ring, MPI_VARIANTS, [4, 64, 256, 1024, 8192, 16384],
                   "sp-wide")


@_memo
def fig11() -> Dict[str, Dict[int, float]]:
    """Figure 11: MPI bandwidth, wide nodes"""
    return _curves(mpi_bandwidth, MPI_VARIANTS,
                   [1024, 2048, 4096, 6144, 8192, 16384, 65536, 262144],
                   "sp-wide")


# -------------------------------------------------------------- ablations


def _store_stream(nbytes: int, count: int, params=None) -> float:
    """Mean us per AM store in a one-way ``store_async`` stream."""
    stores, elapsed = _measure_am("am_store_async", nbytes, count * nbytes,
                                  params)
    return elapsed / stores


@_memo
def allocator() -> Dict[str, float]:
    """Ablation §4.2: allocator + free batching (us/msg, 256 B)"""
    def per_msg(**knobs):
        return mpi_stream(variant(UNOPTIMIZED, **knobs), 256, 200) / 200

    return {"first-fit": mpi_stream(UNOPTIMIZED, 256, 200) / 200,
            "binned": per_msg(binned_allocator=True),
            "combined frees": per_msg(combined_frees=True),
            "both": per_msg(binned_allocator=True, combined_frees=True)}


@_memo
def hybrid_prefix() -> Dict[int, float]:
    """Ablation §4.2: hybrid prefix size (MB/s, 12 KB messages)"""
    n, count = 12288, 24
    return {prefix: count * n / mpi_stream(
                variant(OPTIMIZED, eager_max=0, hybrid=prefix > 0,
                        prefix_bytes=max(prefix, 1)), n, count)
            for prefix in (0, 1024, 2048, 4096)}


@_memo
def window() -> Dict[int, float]:
    """Ablation §2.2: sliding-window size (us per 8 KB chunk)"""
    def run_with_window(req_window):
        # patch both windows coherently (replies keep their +4)
        orig_req = am_constants.REQUEST_WINDOW
        orig_rep = am_constants.REPLY_WINDOW
        for mod in (am_constants, am_endpoint):
            mod.REQUEST_WINDOW = req_window
            mod.REPLY_WINDOW = req_window + 4
        try:
            return _store_stream(8064, 40)
        finally:
            for mod in (am_constants, am_endpoint):
                mod.REQUEST_WINDOW = orig_req
                mod.REPLY_WINDOW = orig_rep

    return {w: run_with_window(w) for w in (36, 54, 72, 108)}


@_memo
def lazy_pop() -> Dict[int, float]:
    """Ablation §2.1: lazy receive-FIFO pop (us per 224 B store)"""
    thin = machine_params("sp-thin")
    return {b: _store_stream(224, 300, with_overrides(thin, lazy_pop_batch=b))
            for b in (1, 16)}


@_memo
def interrupts() -> Dict[str, Tuple[float, float]]:
    """Ablation §1.1: interrupts vs polling, 40 requests into 3 ms of
    compute (first-service latency us, victim total us)"""
    def run(style):
        sim = Simulator()
        m = build_sp_machine(sim, 2)
        am0, am1 = attach_spam(m)
        stamps = {}
        count = [0]
        n_msgs = 40

        def handler(token, i):
            count[0] += 1
            stamps.setdefault("first_served", sim.now)

        def victim():
            t0 = sim.now
            if style == "interrupt":
                yield from compute_interruptible(am1, 3_000.0)
            else:
                yield from compute_polled(am1, 3_000.0, quantum_us=1_000.0)
            while count[0] < n_msgs:
                yield from am1._wait_progress()
            stamps["victim_done"] = sim.now - t0

        def sender():
            yield Delay(100.0)
            stamps["first_sent"] = sim.now
            for i in range(n_msgs):
                yield from am0.request_1(1, handler, i)

        # not run_programs: node 1's victim is spawned first, and
        # spawning in node order would reorder the run's events
        pv = sim.spawn(victim())
        ps = sim.spawn(sender())
        sim.run_until_processes_done([pv, ps], limit=1e8)
        return (stamps["first_served"] - stamps["first_sent"],
                stamps["victim_done"])

    return {"interrupt": run("interrupt"), "poll": run("poll")}


@_memo
def direct_collectives() -> Dict[str, float]:
    """Ablation §5: MPICH-generic vs AM-direct collectives, 8 nodes x
    8 KB (us)"""
    n, size = 8192, 8

    def run(op, direct):
        machine = build_sp_machine(Simulator(), size)
        attach_spam(machine)
        mpis = attach_mpi(machine)
        ctxs = setup_am_collectives(mpis, max_bytes=n) if direct else None

        def prog(node):
            rank = node.id
            if op == "alltoall" and direct:
                yield from am_alltoall(ctxs[rank], [bytes(n)] * size)
            elif op == "alltoall":
                yield from mpis[rank].alltoall([bytes(n)] * size)
            else:
                data = bytes(n) if rank == 0 else None
                if direct:
                    yield from am_bcast(ctxs[rank], data, 0)
                else:
                    yield from mpis[rank].bcast(data, 0)

        return run_programs(machine, [prog] * size, limit_us=1e9,
                            max_events=50_000_000).elapsed_us

    return {f"{'direct' if d else 'generic'} {op}": run(op, d)
            for op in ("alltoall", "bcast") for d in (False, True)}


@_memo
def exchange() -> float:
    """Ablation §2.4 footnote: exchange bandwidth, 256 KB each way
    (aggregate MB/s)"""
    m = build_sp_machine(Simulator(), 2)
    attach_spam(m)
    n = 262144
    bufs = [(m.node(i).memory.alloc(n), m.node(i).memory.alloc(n))
            for i in range(2)]
    done = [0]

    def prog(node):
        rank, am = node.id, node.am
        peer = 1 - rank
        yield from am.store(peer, bufs[rank][0], bufs[peer][1], n)
        done[0] += 1
        while done[0] < 2:
            yield from am._wait_progress()

    return 2 * n / run_programs(m, [prog, prog], limit_us=1e9,
                                max_events=60_000_000).elapsed_us


@_memo
def ft_alltoall() -> Dict[str, float]:
    """Ablation §4.4: FT alltoall schedule (s; nan when unverified)"""
    out = {}
    for name, staggered in (("rank-ordered", False), ("staggered", True)):
        r = run_ft("mpi-am", nprocs=16, grid_n=32, iters=2,
                   staggered=staggered)
        out[name] = r.elapsed_s if r.verified else math.nan
    return out


#: every experiment a claim may cite, by name
EXPERIMENTS: Dict[str, Callable[[], Any]] = {
    f.__name__: f for f in (
        roundtrip, table2, fig3, table3, table4, table5, table6, fig7,
        fig8, fig9, fig10, fig11, allocator, hybrid_prefix, window,
        lazy_pop, interrupts, direct_collectives, exchange, ft_alltoall)
}


def title(experiment: str) -> str:
    """The experiment's display title (its docstring)."""
    return " ".join(EXPERIMENTS[experiment].__doc__.split())


# ------------------------------------------------------------------ claims

HOLDS = "holds"


@dataclass(frozen=True)
class Bound:
    """A tolerance around the paper value, or an ordering relation."""

    text: str
    test: Callable[[float, Any], bool]


def within(tol: float, rel: bool = False) -> Bound:
    """``|measured - paper| <= tol`` (``tol`` a fraction of the paper
    value when ``rel``)."""
    return Bound(f"+-{tol * 100:g}%" if rel else f"+-{tol:g}",
                 lambda m, p: abs(m - p) <= (tol * abs(p) if rel else tol))


def above(x: float) -> Bound:
    return Bound(f"> {x:g}", lambda m, p: m > x)


def below(x: float) -> Bound:
    return Bound(f"< {x:g}", lambda m, p: m < x)


def at_least(x: float) -> Bound:
    return Bound(f">= {x:g}", lambda m, p: m >= x)


def at_most(x: float) -> Bound:
    return Bound(f"<= {x:g}", lambda m, p: m <= x)


def between(lo: float, hi: float) -> Bound:
    return Bound(f"({lo:g}, {hi:g})", lambda m, p: lo < m < hi)


@dataclass(frozen=True)
class Claim:
    """One checked statement of the paper."""

    id: str
    section: str
    experiment: str
    quantity: str
    #: the paper's value of ``quantity`` (a string when it is only a
    #: bound or a reconstruction), or None when the paper gives none
    paper: Union[float, str, None]
    bound: Bound
    value: Callable[[Any], float]
    #: ``holds``, or ``open: ROADMAP <item>`` for a known deviation
    status: str = HOLDS


def _group(section: str, experiment: str, *rows) -> List[Claim]:
    return [Claim(row[0], section, experiment, *row[1:]) for row in rows]


def _pt(*keys) -> Callable:
    def get(r):
        for k in keys:
            r = r[k]
        return r
    return get


def _ratio(a: Callable, b: Callable) -> Callable:
    return lambda r: a(r) / b(r)


def _app(bench: str, stack: str, attr: str = "elapsed_s") -> Callable:
    return lambda r: getattr(r.runs[bench, stack], attr)


def _mpl_over_am(bench: str, attr: str = "elapsed_s") -> Callable:
    return _ratio(_app(bench, "sp-mpl", attr), _app(bench, "sp-am", attr))


def _cpu_smallest(bench: str) -> Callable:
    return lambda r: r.runs[bench, "sp-am"].cpu_s / min(
        r.runs[bench, s].cpu_s for s in ("cm5", "meiko", "unet"))


def _projected(bench: str, stack: str) -> Callable:
    return lambda r: r.runs[bench, stack].elapsed_s * r.scale


def _unverified_sorts(r: SplitCRuns) -> float:
    return float(sum(not run.payload["verified"]
                     for (bench, _stack), run in r.runs.items()
                     if "sort" in bench))


def _nas_ratio(kernel: str) -> Callable:
    def ratio(r):
        t = r[kernel]
        return t["MPI-AM"] / t["MPI-F"] if t["verified"] else math.nan
    return ratio


_MPI = [v for v in MPI_VARIANTS if v != "am_store"]
_TABLE2 = {"request": (7.7, 7.9, 8.0, 8.2), "reply": (4.0, 4.1, 4.3, 4.4)}
_TABLE4 = {"cm5": ("TMC CM-5", 12.0), "meiko": ("Meiko CS-2", 25.0),
           "unet": ("U-Net ATM", 66.0), "sp-thin": ("IBM SP", 51.0)}
#: Table 6's MPI-AM / MPI-F ratios (BT's MPI-F cell is lost to the OCR)
_TABLE6 = {"BT": None, "FT": 1.02, "LU": 1.03, "MG": 1.01, "SP": 1.22}

CLAIMS: Tuple[Claim, ...] = tuple(
    _group(
        "§2.3", "roundtrip",
        ("roundtrip.raw", "raw ping-pong", 47.0, within(1.5), _pt("raw")),
        ("roundtrip.am", "SP AM one word", 51.0, within(1.5), _pt("am1")),
        ("roundtrip.mpl", "IBM MPL", 88.0, within(2.0), _pt("mpl")),
        ("roundtrip.am_cut", "(MPL - AM) / MPL round trip", 0.40,
         above(0.35), lambda r: (r["mpl"] - r["am1"]) / r["mpl"]),
        ("roundtrip.per_word", "AM 4-word - 1-word round trip", 1.5,
         within(1.2), lambda r: r["am4"] - r["am1"]),
    ) + _group(
        "Table 2", "table2", *(
            (f"table2.{kind}_{n}", f"am_{kind}_{n}", _TABLE2[kind][n - 1],
             within(0.3), _pt(kind, n))
            for n in (1, 2, 3, 4) for kind in _TABLE2),
    ) + _group(
        "Fig 3", "fig3",
        ("fig3.rinf_am", "AM async store r_inf (MB/s)", 34.3, within(1.0),
         lambda r: r_inf(_series(r["am_store_async"]))),
        ("fig3.rinf_mpl", "MPL send r_inf (MB/s)", 34.6, within(1.2),
         lambda r: r_inf(_series(r["mpl_send"]))),
        ("fig3.async_1k", "async / blocking store at 1 KB", None, above(2),
         _ratio(_pt("am_store_async", 1024), _pt("am_store", 1024))),
        ("fig3.get_1k", "get / store at 1 KB", None, below(1),
         _ratio(_pt("am_get", 1024), _pt("am_store", 1024))),
        ("fig3.converge_1m", "blocking / async store at 1 MB", 1.0,
         within(0.05),
         _ratio(_pt("am_store", 1048576), _pt("am_store_async", 1048576))),
        ("fig3.mpl_block_1k", "MPL send-reply / AM store at 1 KB", None,
         below(1), _ratio(_pt("mpl_send_reply", 1024), _pt("am_store", 1024))),
        ("fig3.nhalf", "AM / MPL async n1/2", 260 / 2040, below(0.25),
         lambda r: n_half(_series(r["am_store_async"]))
         / n_half(_series(r["mpl_send"]))),
    ) + _group(
        "Table 3", "table3",
        ("table3.rtt_am", "AM round trip (us)", 51.0, within(1.5),
         _pt("rtt_am")),
        ("table3.rtt_mpl", "MPL round trip (us)", 88.0, within(2.0),
         _pt("rtt_mpl")),
        ("table3.rinf_am", "AM r_inf (MB/s)", 34.3, within(1.0),
         _pt("rinf_am")),
        ("table3.rinf_mpl", "MPL r_inf (MB/s)", 34.6, within(1.2),
         _pt("rinf_mpl")),
        ("table3.rinf_order", "MPL / AM r_inf", 34.6 / 34.3, above(1),
         _ratio(_pt("rinf_mpl"), _pt("rinf_am"))),
        ("table3.nhalf_am_async", "AM n1/2 async (B)", 260, between(180, 400),
         _pt("nhalf_am_async")),
        ("table3.nhalf_mpl_async", "MPL n1/2 async (B)", 2040,
         between(1500, 3000), _pt("nhalf_mpl_async")),
        ("table3.nhalf_mpl_block", "MPL n1/2 blocking (B)", ">3200",
         above(3200), _pt("nhalf_mpl_block")),
        ("table3.nhalf_block_order", "AM / MPL n1/2 blocking", None, below(1),
         _ratio(_pt("nhalf_am_block"), _pt("nhalf_mpl_block"))),
    ) + _group(
        "Table 4", "table4", *(
            (f"table4.rtt_{name.split('-')[0]}", f"{label} round trip (us)",
             rtt,
             within(0.10, rel=True), _pt(name, "rtt"))
            for name, (label, rtt) in _TABLE4.items()),
        ("table4.bw_meiko_sp", "Meiko / SP bandwidth", 39 / 34, above(1),
         _ratio(_pt("meiko", "bw"), _pt("sp-thin", "bw"))),
        ("table4.bw_sp_unet", "SP / U-Net bandwidth", 34 / 14, above(1),
         _ratio(_pt("sp-thin", "bw"), _pt("unet", "bw"))),
        ("table4.bw_unet_cm5", "U-Net / CM-5 bandwidth", 14 / 10, above(1),
         _ratio(_pt("unet", "bw"), _pt("cm5", "bw"))),
        ("table4.overhead_cm5_meiko", "CM-5 / Meiko send overhead", 3 / 11,
         below(1), _ratio(_pt("cm5", "overhead"), _pt("meiko", "overhead"))),
        ("table4.rtt_sp_meiko", "SP / Meiko round trip", 51 / 25, above(2),
         _ratio(_pt("sp-thin", "rtt"), _pt("meiko", "rtt"))),
    ) + _group(
        "Table 5", "table5",
        ("table5.smpsort_sm", "SP MPL / SP AM, smpsort-sm", 18.70 / 4.393,
         above(3), _mpl_over_am("smpsort-sm")),
        ("table5.rdxsort_sm", "SP MPL / SP AM, rdxsort-sm", None, above(3),
         _mpl_over_am("rdxsort-sm")),
        ("table5.smpsort_sm_cm5", "SP AM / CM-5, smpsort-sm", None, below(1),
         _ratio(_app("smpsort-sm", "sp-am"), _app("smpsort-sm", "cm5"))),
        ("table5.smpsort_lg_sp_am", "smpsort-lg on SP AM, projected (s)",
         1.814, within(0.35, rel=True), _projected("smpsort-lg", "sp-am")),
        ("table5.rdxsort_sm_sp_am", "rdxsort-sm on SP AM, projected (s)",
         9.894, within(0.35, rel=True), _projected("rdxsort-sm", "sp-am")),
        ("table5.sorts_verified", "unverified sort runs", None, at_most(0),
         _unverified_sorts),
        ("table5.mm128", "SP MPL / SP AM, mm128", None, below(1.25),
         _mpl_over_am("mm128")),
        ("table5.mm16", "SP MPL / SP AM, mm16", 0.489 / 0.295, above(1.25),
         _mpl_over_am("mm16")),
        ("table5.mm128_cm5", "CM-5 / SP AM, mm128", None, above(2),
         _ratio(_app("mm128", "cm5"), _app("mm128", "sp-am"))),
        ("table5.mm128_sp_am", "mm128 on SP AM (s)", "~1.06 (recon)",
         between(0.7, 1.4), _app("mm128", "sp-am")),
    ) + _group(
        "Fig 4", "table5",
        ("fig4.smpsort_sm_cpu", "SP MPL / SP AM cpu, smpsort-sm", 1.0,
         within(0.01), _mpl_over_am("smpsort-sm", "cpu_s")),
        ("fig4.smpsort_lg_cpu", "SP MPL / SP AM cpu, smpsort-lg", 1.0,
         within(0.01), _mpl_over_am("smpsort-lg", "cpu_s")),
        ("fig4.smpsort_sm_cpu_min", "SP AM / fastest peer cpu, smpsort-sm",
         None, below(1), _cpu_smallest("smpsort-sm")),
        ("fig4.smpsort_lg_cpu_min", "SP AM / fastest peer cpu, smpsort-lg",
         None, below(1), _cpu_smallest("smpsort-lg")),
        ("fig4.smpsort_sm_net", "SP MPL / SP AM net, smpsort-sm", None,
         above(3), _mpl_over_am("smpsort-sm", "net_s")),
        ("fig4.rdxsort_sm_net", "SP MPL / SP AM net, rdxsort-sm", None,
         above(3), _mpl_over_am("rdxsort-sm", "net_s")),
        ("fig4.smpsort_lg_total", "SP MPL / SP AM total, smpsort-lg",
         1.811 / 1.814, below(1.5), _mpl_over_am("smpsort-lg")),
        ("fig4.rdxsort_lg_total", "SP MPL / SP AM total, rdxsort-lg",
         3.87 / 3.43, below(1.5), _mpl_over_am("rdxsort-lg")),
        ("fig4.cm5_cpu_net", "CM-5 cpu / net, smpsort-sm", None, above(1),
         _ratio(_app("smpsort-sm", "cm5", "cpu_s"),
                _app("smpsort-sm", "cm5", "net_s"))),
    ) + _group(
        "Table 6", "table6", *(
            (f"table6.{k}", f"{k} MPI-AM / MPI-F time", paper,
             between(0.80, 1.05 if k == "BT" else 1.35), _nas_ratio(k))
            for k, paper in _TABLE6.items()),
    ) + _group(
        "Fig 7", "fig7",
        ("fig7.rdv_1k", "rendez-vous / buffered at 1 KB", None, below(1),
         _ratio(_pt("rendezvous", 1024), _pt("buffered", 1024))),
        ("fig7.hybrid_buffered", "min hybrid / buffered", None,
         at_least(0.97),
         lambda r: min(r["hybrid"][n] / r["buffered"][n]
                       for n in r["hybrid"])),
        ("fig7.hybrid_rdv", "min hybrid / rendez-vous", None, at_least(0.97),
         lambda r: min(r["hybrid"][n] / r["rendezvous"][n]
                       for n in r["hybrid"])),
        ("fig7.hybrid_4k", "hybrid / best pure protocol at 4 KB", None,
         above(1.05),
         lambda r: r["hybrid"][4096] / max(r["buffered"][4096],
                                           r["rendezvous"][4096])),
    ) + _group(
        "Fig 8", "fig8",
        ("fig8.am_store_floor", "am_store / fastest MPI at 4 B", None,
         below(1), lambda r: r["am_store"][4] / min(r[v][4] for v in _MPI)),
        ("fig8.opt_vs_mpi_f", "opt MPI-AM / MPI-F at 4 B", None, below(1),
         _ratio(_pt("opt_mpi_am", 4), _pt("mpi_f", 4))),
        ("fig8.opt_gap", "MPI-F - opt MPI-AM at 4 B (us)", None, below(6.0),
         lambda r: r["mpi_f"][4] - r["opt_mpi_am"][4]),
        ("fig8.unopt_vs_mpi_f", "unopt MPI-AM / MPI-F at 4 B", None,
         above(1), _ratio(_pt("unopt_mpi_am", 4), _pt("mpi_f", 4))),
        ("fig8.opt_helps", "max opt / unopt MPI-AM", None, at_most(1.01),
         lambda r: max(r["opt_mpi_am"][n] / r["unopt_mpi_am"][n]
                       for n in r["opt_mpi_am"])),
    ) + _group(
        "Fig 9", "fig9",
        ("fig9.am_store_512k", "am_store / opt MPI-AM at 512 KB", None,
         at_least(0.98),
         _ratio(_pt("am_store", 524288), _pt("opt_mpi_am", 524288))),
        ("fig9.match_1k", "opt MPI-AM / MPI-F at 1 KB", 1.0, within(0.10),
         _ratio(_pt("opt_mpi_am", 1024), _pt("mpi_f", 1024))),
        ("fig9.medium", "min opt MPI-AM / MPI-F at 6, 8 KB", None, above(1),
         lambda r: min(r["opt_mpi_am"][n] / r["mpi_f"][n]
                       for n in (6144, 8192))),
        ("fig9.peak_gain", "max opt MPI-AM / MPI-F at 6-16 KB", "1.1-1.3",
         above(1.10),
         lambda r: max(r["opt_mpi_am"][n] / r["mpi_f"][n]
                       for n in (6144, 8192, 16384))),
        ("fig9.mpi_f_dip", "MPI-F 6 KB / 4 KB", None, below(1),
         _ratio(_pt("mpi_f", 6144), _pt("mpi_f", 4096))),
        ("fig9.match_512k", "opt MPI-AM / MPI-F at 512 KB", 1.0,
         within(0.12),
         _ratio(_pt("opt_mpi_am", 524288), _pt("mpi_f", 524288))),
    ) + _group(
        "Fig 10", "fig10",
        ("fig10.mpi_f_64", "MPI-F / opt MPI-AM at 64 B", None, at_most(1.01),
         _ratio(_pt("mpi_f", 64), _pt("opt_mpi_am", 64))),
        ("fig10.mpi_f_16k", "MPI-F / opt MPI-AM at 16 KB", None, above(1),
         _ratio(_pt("mpi_f", 16384), _pt("opt_mpi_am", 16384))),
        ("fig10.wide_vs_thin", "opt MPI-AM wide - thin at 4 B (us)", None,
         at_least(-0.5),
         lambda r: r["opt_mpi_am"][4] - _ring("opt_mpi_am", 4, "sp-thin")),
        ("fig10.mpi_f_4", "MPI-F / opt MPI-AM at 4 B", None, at_most(1),
         _ratio(_pt("mpi_f", 4), _pt("opt_mpi_am", 4)),
         "open: ROADMAP 1(a)"),
    ) + _group(
        "Fig 11", "fig11",
        ("fig11.mpi_f_dip", "MPI-F 6 KB / 4 KB", None, below(0.95),
         _ratio(_pt("mpi_f", 6144), _pt("mpi_f", 4096))),
        ("fig11.opt_unopt_16k", "opt / unopt MPI-AM at 16 KB", None,
         above(1),
         _ratio(_pt("opt_mpi_am", 16384), _pt("unopt_mpi_am", 16384))),
        ("fig11.opt_ahead", "min opt MPI-AM / MPI-F at 1, 8, 64, 256 KB",
         None, above(0.98),
         lambda r: min(r["opt_mpi_am"][n] / r["mpi_f"][n]
                       for n in (1024, 8192, 65536, 262144))),
        ("fig11.no_hybrid_dip", "opt MPI-AM 16 KB / 8 KB", None, above(1),
         _ratio(_pt("opt_mpi_am", 16384), _pt("opt_mpi_am", 8192)),
         "open: ROADMAP 1(b)"),
    ) + _group(
        "§4.2", "allocator",
        ("allocator.binned", "binned / first-fit (us/msg)", None, below(1),
         _ratio(_pt("binned"), _pt("first-fit"))),
        ("allocator.frees", "combined / per-msg frees (us/msg)", None,
         below(1), _ratio(_pt("combined frees"), _pt("first-fit"))),
        ("allocator.both", "both / best single optimization", None,
         below(1.02),
         lambda r: r["both"] / min(r["binned"], r["combined frees"])),
    ) + _group(
        "§4.2", "hybrid_prefix",
        ("hybrid_prefix.1k", "1 KB prefix / pure rendez-vous", None,
         above(1), _ratio(_pt(1024), _pt(0))),
        ("hybrid_prefix.4k", "4 KB / 1 KB prefix", None, at_least(1),
         _ratio(_pt(4096), _pt(1024))),
    ) + _group(
        "§2.2", "window",
        ("window.36", "36 / 72-packet window (us/chunk)", None, above(1.15),
         _ratio(_pt(36), _pt(72))),
        ("window.108", "108 / 72-packet window (us/chunk)", None, above(0.9),
         _ratio(_pt(108), _pt(72))),
    ) + _group(
        "§2.1", "lazy_pop",
        ("lazy_pop.16", "pop batch 16 / 1 (us/store)", None, below(1),
         _ratio(_pt(16), _pt(1))),
    ) + _group(
        "§1.1", "interrupts",
        ("interrupts.latency", "interrupt / polling first-service latency",
         None, below(1),
         _ratio(_pt("interrupt", 0), _pt("poll", 0))),
        ("interrupts.total", "interrupt / polling victim total", None,
         above(1), _ratio(_pt("interrupt", 1), _pt("poll", 1))),
    ) + _group(
        "§5", "direct_collectives",
        ("direct_collectives.alltoall", "AM-direct / generic alltoall", None,
         below(0.8), _ratio(_pt("direct alltoall"), _pt("generic alltoall"))),
        ("direct_collectives.bcast", "AM-direct / generic bcast", None,
         below(1), _ratio(_pt("direct bcast"), _pt("generic bcast"))),
    ) + _group(
        "§2.4", "exchange",
        ("exchange.aggregate", "aggregate exchange (MB/s)", None,
         above(1.2 * 33.5), lambda r: r),
        ("exchange.per_direction", "per-direction exchange (MB/s)", None,
         between(0.55 * 33.5, 0.85 * 33.5), lambda r: r / 2),
    ) + _group(
        "§4.4", "ft_alltoall",
        ("ft_alltoall.staggered", "staggered / rank-ordered FT time", None,
         below(1), _ratio(_pt("staggered"), _pt("rank-ordered"))),
    )
)

BY_ID: Dict[str, Claim] = {c.id: c for c in CLAIMS}


@dataclass(frozen=True)
class Row:
    """A claim evaluated on its experiment's result."""

    claim: Claim
    measured: float

    @property
    def ok(self) -> bool:
        return self.claim.bound.test(self.measured, self.claim.paper)

    @property
    def status(self) -> str:
        """``ok``/``FAILS`` for a claim that holds; ``open <item>`` or
        ``XPASS <item>`` for an open one."""
        if self.claim.status == HOLDS:
            return "ok" if self.ok else "FAILS"
        item = self.claim.status.rsplit(" ", 1)[-1]
        return f"{'XPASS' if self.ok else 'open'} {item}"

    def __str__(self) -> str:
        c = self.claim
        return (f"{c.id}: {c.quantity} = {self.measured:.6g}, bound "
                f"{c.bound.text}, paper {c.paper} [{self.status}]")


def evaluate(claim: Claim, result: Any = None) -> Row:
    """Measure ``claim`` on ``result``, or on its experiment run now."""
    if result is None:
        result = EXPERIMENTS[claim.experiment]()
    return Row(claim, claim.value(result))


def render(heading: str, rows: Sequence[Row]) -> str:
    """The rows as a paper-vs-measured table with bound and status."""
    return paper_vs_measured(
        heading,
        [(r.claim.quantity, r.claim.paper, r.measured, r.claim.bound.text,
          r.status, r.claim.id) for r in rows],
        extra=("bound", "status", "claim"))


def report_entries(rows: Sequence[Row]) -> List[tuple]:
    """``make_report`` rows: name, numeric paper value, measured, and the
    claim's id, section, bound and status."""
    return [(r.claim.quantity,
             r.claim.paper if isinstance(r.claim.paper, (int, float))
             else None,
             r.measured,
             {"claim": r.claim.id, "section": r.claim.section,
              "bound": r.claim.bound.text, "status": r.status})
            for r in rows]
