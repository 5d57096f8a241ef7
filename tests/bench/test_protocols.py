"""The protocol-comparison bench (repro.bench.protocols).

Real measurement at one small size per curve (keeping the suite fast),
plus pure-function coverage of the report rows that ``spam-bench
protocols`` and the committed BENCH_protocols.json rely on.
"""

from repro.bench.protocols import (
    CURVES,
    measure_curve,
    report_entries,
    run_protocols,
)


def _fake(eager):
    return {
        "curves": {
            "eager": eager,
            "mpl": [(n, 20.0) for n, _ in eager],
            "mpi-f": [(n, 25.0) for n, _ in eager],
        },
        "latency_us": {"eager": [(n, 100.0) for n, _ in eager]},
    }


class TestReportRows:
    def test_entries_cover_every_curve(self):
        data = _fake([(8064, 33.0)])
        names = [name for name, _p, _m in report_entries(data)]
        assert names == [f"{curve} 8064B (MB/s)" for curve in CURVES]


class TestMeasurement:
    def test_every_curve_measures_positive_bandwidth(self):
        for curve in CURVES:
            bw = measure_curve(curve, 1024, total=30_000)
            assert bw > 0, curve

    def test_run_protocols_tiny_sweep_is_well_formed(self):
        data = run_protocols(sizes=[1024])
        assert data["sizes"] == [1024]
        assert set(data["curves"]) == set(CURVES)
        assert all(len(series) == 1 for series in data["curves"].values())
        assert [n for n, _us in data["latency_us"]["eager"]] == [1024]
