"""Protocol-comparison bench (``spam-bench protocols``).

Bandwidth curves for the four large-message strategies the repo can
drive over the same simulated SP hardware:

=============  ==========================================================
``eager``       AM chunk protocol (pipelined ``store_async``)
``rendezvous``  RTS/CTS + simulated RDMA (same calls, ``xfer_mode`` knob)
``mpl``         IBM MPL ``mpc_send`` (the paper's Table 3 rival)
``mpi-f``       the reference MPI-F stack
=============  ==========================================================

The interesting structure is the eager/rendezvous crossover: rendezvous
pays an RTS/CTS round trip (~one AM RTT) before the first payload byte
moves, then streams leaner RDMA framing with no per-packet receiver
handler work.  Below about one chunk the round trip dominates and eager
wins; a few chunks up the lean framing has repaid it.  The committed
``BENCH_protocols.json`` must show rendezvous bandwidth >= eager for
every size >= ``CROSSOVER_FACTOR`` x the default crossover — that is the
regression gate for the rendezvous data path staying on its fast path.

A small single-transfer latency series for eager vs rendezvous is
included too, since the crossover is easiest to eyeball as a latency
ratio dipping below 1.0.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.am.constants import RDZV_CROSSOVER
from repro.bench.bandwidth import _measure_am, measure_bandwidth

#: curve names, in display order
CURVES = ("eager", "rendezvous", "mpl", "mpi-f")

#: sweep sizes: sub-crossover, the crossover itself, then 2x/4x/8x and
#: two asymptotic points (the crossover is one chunk = 8064 B)
DEFAULT_SIZES = [1024, 4032, 8064, 16128, 32256, 64512, 131072, 262144]

#: reduced sweep for CI smoke (--quick)
QUICK_SIZES = [4032, 8064, 16128, 32256, 64512]

#: rendezvous must beat (or match) eager from this multiple of the
#: crossover upward; below it either may win
CROSSOVER_FACTOR = 4


def measure_curve(curve: str, n: int, total: int = 0) -> float:
    """Bandwidth (MB/s) of one protocol at one transfer size."""
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; one of {CURVES}")
    if total <= 0:
        total = min(1_000_000, max(150_000, 6 * n))
    if curve in ("eager", "rendezvous"):
        count, elapsed = _measure_am("am_store_async", n, total,
                                     xfer_mode=curve)
        return count * n / elapsed
    if curve == "mpl":
        return measure_bandwidth("mpl_send", n, total=total)
    from repro.bench.figures import mpi_bandwidth

    return mpi_bandwidth("mpi_f", n, total=total)


def crossover_problems(data: Dict, factor: int = CROSSOVER_FACTOR
                       ) -> List[str]:
    """The regression gate: rendezvous >= eager from factor x crossover."""
    problems: List[str] = []
    eager = dict(data["curves"]["eager"])
    rdzv = dict(data["curves"]["rendezvous"])
    floor = factor * data["crossover_bytes"]
    for n in sorted(eager):
        if n < floor or n not in rdzv:
            continue
        if rdzv[n] < eager[n]:
            problems.append(
                f"rendezvous {rdzv[n]:.2f} MB/s < eager {eager[n]:.2f} "
                f"MB/s at {n} B (>= {factor}x crossover of "
                f"{data['crossover_bytes']} B)")
    return problems


def run_protocols(quick: bool = False,
                  sizes: Optional[Sequence[int]] = None) -> Dict:
    """Run the full comparison; returns the report ``extra`` payload."""
    sizes = list(sizes) if sizes is not None else (
        QUICK_SIZES if quick else DEFAULT_SIZES)
    curves: Dict[str, List[Tuple[int, float]]] = {}
    for curve in CURVES:
        curves[curve] = [(n, round(measure_curve(curve, n), 3))
                         for n in sizes]
    # single-transfer latency: the mean of four back-to-back blocking
    # stores per size
    latency: Dict[str, List[Tuple[int, float]]] = {}
    for mode in ("eager", "rendezvous"):
        latency[mode] = []
        for n in sizes:
            count, elapsed = _measure_am("am_store", n, 4 * n,
                                         xfer_mode=mode)
            latency[mode].append((n, round(elapsed / count, 3)))
    data: Dict = {
        "quick": quick,
        "sizes": sizes,
        "crossover_bytes": RDZV_CROSSOVER,
        "crossover_factor": CROSSOVER_FACTOR,
        "curves": curves,
        "latency_us": latency,
    }
    data["crossover_problems"] = crossover_problems(data)
    data["crossover_ok"] = not data["crossover_problems"]
    return data


def report_entries(data: Dict) -> List[tuple]:
    """``(name, paper, measured)`` rows for ``make_report``."""
    entries: List[tuple] = []
    for curve in CURVES:
        for n, bw in data["curves"][curve]:
            entries.append((f"{curve} {n}B (MB/s)", None, bw))
    eager = dict(data["latency_us"]["eager"])
    for n, us in data["latency_us"]["rendezvous"]:
        entries.append((f"rendezvous/eager latency ratio {n}B", None,
                        round(us / eager[n], 4)))
    entries.append((f"rendezvous>=eager from "
                    f"{data['crossover_factor']}x crossover", 1.0,
                    1.0 if data["crossover_ok"] else 0.0))
    return entries
