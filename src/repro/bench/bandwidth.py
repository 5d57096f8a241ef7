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

from typing import Optional, Sequence, Tuple

from repro.bench.harness import am_pair, run_programs, serve_until
from repro.hardware.machine import build_sp_machine
from repro.hardware.params import MachineParams
from repro.mpl import attach_mpl
from repro.sim import Simulator

MODES = ("am_store", "am_get", "mpl_send_reply",
         "am_store_async", "am_get_async", "mpl_send")


def _measure_am(mode: str, n: int, total: int,
                params: Optional[MachineParams] = None) -> Tuple[int, float]:
    """The one two-node AM stream: node 0 moves ~``total`` bytes to node
    1 in ``n``-byte ``mode`` ops while node 1 serves the network.

    ``params`` picks the machine as :func:`~repro.bench.harness.am_pair`
    does.  Returns ``(count, elapsed_us)``: bandwidth is ``count * n /
    elapsed_us`` (bytes/us == MB/s), the mean blocking-op latency
    ``elapsed_us / count``.
    """
    machine = am_pair(params)
    src = machine.node(0).memory.alloc(max(n, 1))
    dst = machine.node(1).memory.alloc(max(n, 1))
    count = max(1, total // max(n, 1))
    flag = [0]

    def sender(node):
        am0 = node.am
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

    run = run_programs(
        machine, [sender, lambda node: serve_until(node.am, flag)],
        wait_for=[0], max_events=80_000_000)
    return count, run.elapsed_us


def _measure_mpl(mode: str, n: int, total: int,
                 params: Optional[MachineParams] = None) -> Tuple[int, float]:
    """The two-node MPL stream (``mpl_send`` or the blocking
    ``mpl_send_reply``); ``(count, elapsed_us)`` as :func:`_measure_am`."""
    machine = build_sp_machine(Simulator(), 2, params)
    attach_mpl(machine)
    count = max(1, total // max(n, 1))
    data = bytes(n)

    def sender(node):
        for _i in range(count):
            if mode == "mpl_send":
                yield from node.mpl.mpc_send(data, 1, tag=1)
            else:
                yield from node.mpl.mpc_bsend(data, 1, tag=1)
                yield from node.mpl.mpc_brecv(4, 1, tag=2)

    def receiver(node):
        for _i in range(count):
            yield from node.mpl.mpc_brecv(max(n, 1), 0, tag=1)
            if mode != "mpl_send":
                yield from node.mpl.mpc_bsend(b"\x00" * 4, 0, tag=2)

    run = run_programs(machine, [sender, receiver], max_events=80_000_000)
    return count, run.elapsed_us


def measure_bandwidth(mode: str, n: int, total: int = 0, params=None) -> float:
    """One-way bandwidth (MB/s) moving ~``total`` bytes in ``n``-byte ops."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; one of {MODES}")
    if n < 0:
        raise ValueError(f"message size n={n} must be >= 0")
    if total <= 0:
        # enough repetitions for steady state, bounded for tiny sizes
        total = min(1_000_000, max(150_000, 6 * n))
    kernel = _measure_mpl if mode.startswith("mpl") else _measure_am
    count, elapsed = kernel(mode, n, total, params)
    return count * n / elapsed


def r_inf(series: Sequence[Tuple[int, float]]) -> float:
    """Asymptotic bandwidth from a linear fit of T(n) = t0 + n/B over the
    largest sizes (robust against fixed overheads)."""
    import numpy as np

    if len(series) < 2:
        raise ValueError(
            f"r_inf fits a line: needs at least 2 points, got {len(series)}")
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
