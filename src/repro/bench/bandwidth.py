"""Bandwidth benchmarks: Figure 3 curves, Table 3 r_inf / n_1/2 (§2.4).

Six configurations, exactly as the paper's Figure 3:

=====================  =====================================================
``am_store``            blocking stores, wait for ack each transfer
``am_get``              blocking gets
``mpl_send_reply``      mpc_bsend + 0-byte mpc_brecv (blocking MPL)
``am_store_async``      pipelined non-blocking stores (1 MB in n-byte ops)
``am_get_async``        pipelined gets
``mpl_send``            pipelined mpc_send
=====================  =====================================================

``r_inf``/``n_half`` are extracted the standard way: fit transfer time
T(n) = t0 + n/B over the largest sizes for the asymptote, then find the
size where measured bandwidth crosses B/2 by interpolation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.am import attach_am
from repro.bench.harness import serve_until
from repro.hardware.machine import build_generic_machine, build_sp_machine
from repro.hardware.params import MachineParams
from repro.mpl import attach_mpl
from repro.sim import Simulator

#: message sizes of the Figure 3 sweep (16 B .. 1 MB)
DEFAULT_SIZES = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8064,
                 16384, 32768, 65536, 131072, 262144, 524288, 1048576]

MODES = ("am_store", "am_get", "mpl_send_reply",
         "am_store_async", "am_get_async", "mpl_send")


def _measure_am(mode: str, n: int, total: int,
                params: Optional[MachineParams] = None, obs=None,
                sample_period_us: Optional[float] = None
                ) -> Tuple[int, float]:
    """The one two-node AM stream: node 0 moves ~``total`` bytes to node
    1 in ``n``-byte ``mode`` ops while node 1 serves the network.

    ``params`` picks the machine (SP thin nodes by default, or any
    Table 4 peer).  An Observatory ``obs`` is attached before AM, and its
    gauge sampler started at ``sample_period_us`` when given.  Returns
    ``(count, elapsed_us)``: bandwidth is ``count * n / elapsed_us``
    (bytes/us == MB/s), the mean blocking-op latency ``elapsed_us /
    count``.
    """
    sim = Simulator()
    if params is None or params.nodes_kind == "sp":
        machine = build_sp_machine(sim, 2, params)
    else:
        machine = build_generic_machine(sim, 2, params)
    if obs is not None:
        obs.attach(machine)
    am0, am1 = attach_am(machine)
    if sample_period_us is not None:
        obs.start_sampler(period_us=sample_period_us)
    src = machine.node(0).memory.alloc(max(n, 1))
    dst = machine.node(1).memory.alloc(max(n, 1))
    count = max(1, total // max(n, 1))
    flag = [0]

    def sender():
        if mode == "am_store":
            for _i in range(count):
                yield from am0.store(1, src, dst, n)
        elif mode == "am_get":
            for _i in range(count):
                yield from am0.get(1, dst, src, n)
        elif mode == "am_store_async":
            ops = []
            for _i in range(count):
                ops.append((yield from am0.store_async(1, src, dst, n)))
            for op in ops:
                yield from am0.wait_op(op)
        elif mode == "am_get_async":
            evs = []
            for _i in range(count):
                evs.append((yield from am0.get_async(1, dst, src, n)))
            while not all(e.triggered for e in evs):
                yield from am0._wait_progress()
        else:  # pragma: no cover
            raise ValueError(mode)
        flag[0] = 1

    p = sim.spawn(sender(), name="bw-send")
    sim.spawn(serve_until(am1, flag), name="bw-recv")
    sim.run_until_processes_done([p], limit=1e10, max_events=80_000_000)
    return count, sim.now


def _measure_mpl(mode: str, n: int, total: int, params=None) -> float:
    sim = Simulator()
    machine = build_sp_machine(sim, 2, params)
    attach_mpl(machine)
    s, r = machine.node(0).mpl, machine.node(1).mpl
    count = max(1, total // max(n, 1))
    data = bytes(n)

    def sender(_):
        for _i in range(count):
            if mode == "mpl_send":
                yield from s.mpc_send(data, 1, tag=1)
            else:
                yield from s.mpc_bsend(data, 1, tag=1)
                yield from s.mpc_brecv(4, 1, tag=2)

    def receiver(_):
        for _i in range(count):
            yield from r.mpc_brecv(max(n, 1), 0, tag=1)
            if mode != "mpl_send":
                yield from r.mpc_bsend(b"\x00" * 4, 0, tag=2)

    p = sim.spawn(sender(0), name="bw-send")
    q = sim.spawn(receiver(0), name="bw-recv")
    sim.run_until_processes_done([p, q], limit=1e10, max_events=80_000_000)
    return count * n / sim.now


def measure_bandwidth(mode: str, n: int, total: int = 0, params=None) -> float:
    """One-way bandwidth (MB/s) moving ~``total`` bytes in ``n``-byte ops."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; one of {MODES}")
    if total <= 0:
        # enough repetitions for steady state, bounded for tiny sizes
        total = min(1_000_000, max(150_000, 6 * n))
    if mode.startswith("mpl"):
        return _measure_mpl(mode, n, total, params)
    count, elapsed = _measure_am(mode, n, total, params)
    return count * n / elapsed


def sweep(mode: str, sizes: Sequence[int] = DEFAULT_SIZES,
          params=None) -> List[Tuple[int, float]]:
    """Figure 3: (size, MB/s) series for one configuration."""
    return [(n, measure_bandwidth(mode, n, params=params)) for n in sizes]


def r_inf(series: Sequence[Tuple[int, float]]) -> float:
    """Asymptotic bandwidth from a linear fit of T(n) = t0 + n/B over the
    largest sizes (robust against fixed overheads)."""
    import numpy as np

    big = sorted(series)[-4:]
    ns = np.array([n for n, _ in big], dtype=float)
    ts = ns / np.array([bw for _, bw in big], dtype=float)
    slope, _t0 = np.polyfit(ns, ts, 1)
    return 1.0 / slope


def n_half(series: Sequence[Tuple[int, float]], asymptote: float = None) -> float:
    """The transfer size at which bandwidth reaches half the asymptote."""
    b_inf = asymptote if asymptote is not None else r_inf(series)
    target = b_inf / 2
    pts = sorted(series)
    prev = None
    for n, bw in pts:
        if bw >= target:
            if prev is None:
                return float(n)
            n0, b0 = prev
            # log-linear interpolation between the straddling points
            frac = (target - b0) / (bw - b0)
            return float(n0 + frac * (n - n0))
        prev = (n, bw)
    raise ValueError(
        f"series never reaches half of the asymptote {b_inf:.2f} MB/s"
    )
