"""Unit tests for the benchmark harness: formatting, curve fitting."""

import pytest

from repro.bench.bandwidth import MODES, measure_bandwidth, n_half, r_inf
from repro.bench.report import fmt_series, fmt_table, paper_vs_measured


class TestFormatting:
    def test_fmt_table_aligns_and_rounds(self):
        out = fmt_table("T", ["a", "b"], [(1, 2.345), ("x", 7)], width=6)
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.35" in out
        assert "x" in out

    def test_fmt_series_merges_x_axes(self):
        out = fmt_series("S", {"one": [(1, 10.0), (4, 40.0)],
                               "two": [(2, 20.0)]})
        assert out.count("\n") >= 4
        assert "-" in out  # missing points rendered as '-'

    def test_paper_vs_measured_deviation(self):
        out = paper_vs_measured("PV", [("q", 100.0, 110.0)])
        assert "+10.0%" in out

    def test_paper_vs_measured_nonnumeric_paper(self):
        out = paper_vs_measured("PV", [("q", ">3200", 5000.0)])
        assert ">3200" in out
        assert "%" not in out.splitlines()[-1]

    def test_units_footer(self):
        out = paper_vs_measured("PV", [("q", 1.0, 1.0)], unit="us")
        assert out.endswith("(units: us)")


class TestCurveFits:
    def _ideal_series(self, bw=34.3, overhead=20.0):
        """T(n) = overhead + n / bw."""
        return [(n, n / (overhead + n / bw))
                for n in (256, 1024, 4096, 16384, 65536, 262144, 1048576)]

    def test_r_inf_recovers_asymptote(self):
        series = self._ideal_series(bw=34.3)
        assert r_inf(series) == pytest.approx(34.3, rel=0.02)

    def test_r_inf_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            r_inf([(10, 1.0)])

    @pytest.mark.parametrize("mode", MODES)
    def test_negative_size_is_named(self, mode):
        with pytest.raises(ValueError, match="n=-4"):
            measure_bandwidth(mode, -4)

    def test_n_half_recovers_half_power_point(self):
        bw, ov = 34.3, 20.0
        series = self._ideal_series(bw, ov)
        # analytic n1/2 of the ideal model is overhead * bw
        assert n_half(series, bw) == pytest.approx(ov * bw, rel=0.25)

    def test_n_half_unreachable_raises(self):
        series = [(256, 1.0), (1024, 2.0)]
        with pytest.raises(ValueError):
            n_half(series, asymptote=34.3)

    def test_n_half_interpolates_between_points(self):
        series = [(100, 10.0), (1000, 30.0), (10000, 34.0)]
        nh = n_half(series, asymptote=34.0)
        assert 100 < nh < 1000


class TestCli:
    def test_cli_help_lists_experiments(self, capsys):
        from repro.cli import main

        assert main([]) == 0
        out = capsys.readouterr().out
        for word in ("table3", "fig8", "nas"):
            assert word in out

    def test_cli_roundtrip_runs(self, capsys):
        from repro.cli import main

        assert main(["roundtrip", "--no-report"]) == 0
        out = capsys.readouterr().out
        assert "51.0" in out and "IBM MPL" in out

    def test_cli_table2_runs(self, capsys):
        from repro.cli import main

        assert main(["table2", "--no-report"]) == 0
        out = capsys.readouterr().out
        assert "am_request_1" in out
