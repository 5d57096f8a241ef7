"""Protocol-comparison bench (``spam-bench protocols``).

Bandwidth curves for the three large-message strategies the repo can
drive over the same simulated SP hardware:

=========  ==============================================================
``eager``  AM chunk protocol (pipelined ``store_async``)
``mpl``    IBM MPL ``mpc_send`` (the paper's Table 3 rival)
``mpi-f``  the reference MPI-F stack
=========  ==============================================================

A single-transfer latency series for the AM chunk protocol (blocking
``store``) is included too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.bandwidth import _measure_am, measure_bandwidth

#: curve names, in display order
CURVES = ("eager", "mpl", "mpi-f")

#: sweep sizes: below one chunk (8064 B), one chunk, then 2x/4x/8x and
#: two asymptotic points
DEFAULT_SIZES = [1024, 4032, 8064, 16128, 32256, 64512, 131072, 262144]

#: reduced sweep for CI smoke (--quick)
QUICK_SIZES = [4032, 8064, 16128, 32256, 64512]


def measure_curve(curve: str, n: int, total: int = 0) -> float:
    """Bandwidth (MB/s) of one protocol at one transfer size."""
    if curve not in CURVES:
        raise ValueError(f"unknown curve {curve!r}; one of {CURVES}")
    if total <= 0:
        total = min(1_000_000, max(150_000, 6 * n))
    if curve == "eager":
        count, elapsed = _measure_am("am_store_async", n, total)
        return count * n / elapsed
    if curve == "mpl":
        return measure_bandwidth("mpl_send", n, total=total)
    from repro.bench.figures import mpi_bandwidth

    return mpi_bandwidth("mpi_f", n, total=total)


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
    eager = []
    for n in sizes:
        count, elapsed = _measure_am("am_store", n, 4 * n)
        eager.append((n, round(elapsed / count, 3)))
    return {
        "quick": quick,
        "sizes": sizes,
        "curves": curves,
        "latency_us": {"eager": eager},
    }


def report_entries(data: Dict) -> List[tuple]:
    """``(name, paper, measured)`` rows for ``make_report``."""
    entries: List[tuple] = []
    for curve in CURVES:
        for n, bw in data["curves"][curve]:
            entries.append((f"{curve} {n}B (MB/s)", None, bw))
    return entries
