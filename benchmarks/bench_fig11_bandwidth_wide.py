"""Figure 11: MPI bandwidth, wide nodes.

Shows MPI-F's protocol discontinuity: "the bandwidth achieved using
messages of 8 Kbytes is actually lower than with 4 Kbyte messages because
of the rendez-vous latency introduced for the larger messages" (its
buffered->rendez-vous switch sits at 4 KB on wide nodes); the optimized
MPI-AM's hybrid protocol avoids any such dip.
"""

from functools import lru_cache

import pytest

from benchmarks.conftest import run_once
from repro.bench.figures import MPI_VARIANTS, mpi_bandwidth
from repro.bench.report import fmt_series

SIZES = [1024, 2048, 4096, 6144, 8192, 16384, 65536, 262144]


@lru_cache(maxsize=None)
def _curves():
    return {
        v: [(n, mpi_bandwidth(v, n, "sp-wide")) for n in SIZES]
        for v in MPI_VARIANTS
    }


def test_fig11_bandwidth_wide(benchmark, record):
    curves = run_once(benchmark, _curves)
    record(
        fmt_series("Figure 11: MPI bandwidth, wide nodes", curves),
        **{f"{v}_8k": dict(curves[v])[8192] for v in MPI_VARIANTS},
    )
    f = dict(curves["mpi_f"])
    opt = dict(curves["opt_mpi_am"])
    unopt = dict(curves["unopt_mpi_am"])
    # MPI-F's rendez-vous discontinuity just past its 4 KB switch: raw
    # bandwidth DROPS where the extra round trip lands (§4.3: "the
    # bandwidth achieved using messages of 8 Kbytes is actually lower
    # than with 4 Kbyte messages")
    assert f[6144] < f[4096] * 0.95
    # optimized beats unoptimized through the switch region
    assert opt[16384] > unopt[16384]
    # on wide nodes MPI-AM stays ahead of MPI-F for non-tiny messages
    for n in (1024, 8192, 65536, 262144):
        assert opt[n] > f[n] * 0.98, n


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1(b): optimized MPI-AM dips at its hybrid switch on wide "
    "nodes, 25.03 MB/s at 16 KB vs 25.27 at 8 KB; remove this marker once "
    "fixed"))
def test_fig11_no_hybrid_dip():
    # the optimized MPI-AM shows no dip at ITS switch: the hybrid keeps
    # the curve rising from 8 KB (buffered) into 16 KB (rendez-vous)
    opt = dict(_curves()["opt_mpi_am"])
    assert opt[16384] > opt[8192]
