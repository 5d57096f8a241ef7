"""CLI observability surface: --trace-out/--stats, reports, inspect."""

import json

import pytest

from repro.cli import main
from repro.obs.schema import validate_bench_report, validate_chrome_trace


class TestRoundtripFlags:
    def test_trace_stats_and_report(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        rc = main(["roundtrip", "--iters", "20", "--stats",
                   "--trace-out", trace, "--report-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage attribution" in out
        assert "am.rtt_us histogram" in out

        with open(trace) as f:
            assert validate_chrome_trace(json.load(f)) == []

        report_path = tmp_path / "BENCH_roundtrip.json"
        with open(report_path) as f:
            report = json.load(f)
        assert validate_bench_report(report) == []
        names = [r["name"] for r in report["results"]]
        assert "SP AM one word" in names and "raw ping-pong" in names
        assert all("paper" in r for r in report["results"])
        rtt = report["stats"]["histograms"]["am.rtt_us"]
        assert {"p50", "p95", "p99"} <= set(rtt)
        att = report["attribution"]
        am_row = next(r for r in report["results"]
                      if r["name"] == "SP AM one word")
        # acceptance criterion: stage sum within ±5% of the measured rtt
        assert abs(att["attributed_us"] - am_row["measured"]) \
            <= 0.05 * am_row["measured"]
        assert {"REQUEST", "REPLY"} <= set(report["critpath"])

    def test_no_report_writes_nothing(self, tmp_path):
        rc = main(["roundtrip", "--iters", "10", "--no-report",
                   "--report-dir", str(tmp_path)])
        assert rc == 0
        assert list(tmp_path.iterdir()) == []


def test_over_and_under_attribution_fail_the_gate(monkeypatch, capsys):
    """``roundtrip`` exits 1 when the critical path explains less than 95%
    of the measured round trip (time unexplained) or more than 105% (time
    counted twice), and 0 inside the band."""
    import repro.obs.critpath as critpath

    real = critpath.attribution_coverage
    for factor, rc in ((1.2, 1), (0.8, 1), (1.04, 0), (0.96, 0)):
        monkeypatch.setattr(
            critpath, "attribution_coverage",
            lambda obs, rtt, f=factor: real(obs, rtt / f))
        assert main(["roundtrip", "--iters", "10", "--no-report"]) == rc
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("FAIL")]
        if rc:
            (line,) = fails
            assert "attribution coverage" in line
            assert f"{factor * 100.0:.0f}." in line
            assert "outside 95-105%" in line
        else:
            assert fails == []


class TestTableReports:
    def test_table2_report(self, tmp_path):
        assert main(["table2", "--report-dir", str(tmp_path)]) == 0
        with open(tmp_path / "BENCH_table2.json") as f:
            report = json.load(f)
        assert validate_bench_report(report) == []
        assert len(report["results"]) == 8  # request/reply x 1..4 words


class TestInspect:
    def test_inspect_all_formats(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        main(["roundtrip", "--iters", "10", "--stats",
              "--trace-out", trace, "--report-dir", str(tmp_path)])
        capsys.readouterr()
        rc = main(["inspect", trace,
                   str(tmp_path / "BENCH_roundtrip.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chrome-trace [OK]" in out
        assert "bench-report [OK]" in out
        # a request and a reply span per round trip, from otherData
        assert "20 spans, 0 dropped" in out
        # the critical-path stages are read back from the trace's slices
        assert "dma_wire:REQUEST" in out

    @pytest.mark.parametrize("content", [
        b"{}\n",
        b'{"traceEvents": [',
        b'{"schema": "spam-bench/1"',
        bytes(range(0x80, 0xC0)),
    ], ids=["empty-object", "truncated-trace", "truncated-report",
            "binary"])
    def test_inspect_bad_file_fails(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["inspect", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_inspect_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "missing.json")]) == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--iters", "5"],
    ["soak"],
], ids=["roundtrip", "soak"])
@pytest.mark.parametrize("bad", ["missing-dir", "a-dir"])
def test_unwritable_trace_out_fails_before_the_run(tmp_path, capsys, argv,
                                                   bad):
    if bad == "missing-dir":
        trace = str(tmp_path / "missing" / "t.json")
    else:
        trace = str(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-report", "--trace-out", trace])
    assert "cannot write trace" in str(exc.value)
    assert trace in str(exc.value)
    assert capsys.readouterr().out == ""
