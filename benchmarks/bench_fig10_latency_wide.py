"""Figure 10: MPI per-hop latency, wide nodes.

"on wide nodes MPI-F is faster for messages of less than 100 bytes but
slower for larger messages.  Evidently MPI-F was optimized for the wide
nodes while MPI-AM was developed on thin ones."
"""

from functools import lru_cache

import pytest

from benchmarks.conftest import run_once
from repro.bench.figures import MPI_VARIANTS, mpi_ring_latency
from repro.bench.report import fmt_series

SIZES = [4, 64, 256, 1024, 8192, 16384]


@lru_cache(maxsize=None)
def _curves():
    return {
        v: [(n, mpi_ring_latency(v, n, "sp-wide")) for n in SIZES]
        for v in MPI_VARIANTS
    }


def test_fig10_latency_wide(benchmark, record):
    curves = run_once(benchmark, _curves)
    record(
        fmt_series("Figure 10: per-hop latency, wide nodes", curves,
                   ylabel="us/hop"),
        **{f"{v}_4B": dict(curves[v])[4] for v in MPI_VARIANTS},
    )
    opt = dict(curves["opt_mpi_am"])
    f = dict(curves["mpi_f"])
    # MPI-F wins below ~100 bytes on its home turf (the 4-byte cell is
    # the xfail below)
    assert f[64] <= opt[64] * 1.01
    # ... and loses for larger messages
    assert f[16384] > opt[16384]
    # thin-developed MPI-AM is slightly slower here than on thin nodes
    thin_small = mpi_ring_latency("opt_mpi_am", 4, "sp-thin")
    assert opt[4] >= thin_small - 0.5


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1(a): the wide-node crossover is gone, MPI-F 40.24 vs "
    "optimized MPI-AM 39.60 us at 4 B; remove this marker once fixed"))
def test_fig10_mpi_f_wins_at_4_bytes():
    opt = dict(_curves()["opt_mpi_am"])
    f = dict(_curves()["mpi_f"])
    assert f[4] <= opt[4]
